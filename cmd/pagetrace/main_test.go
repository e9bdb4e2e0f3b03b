package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// runMainEnv makes the test binary run pagetrace's main with its own
// arguments, so a test can drive the command end to end, exit code and all.
const runMainEnv = "PAGETRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pagetrace runs the command with args and returns its combined output and
// exit code.
func pagetrace(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); ok {
		return string(out), exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestReplayBinMustBePositive replays a one-transfer event log. A bin width
// that is zero, negative or below the clock's microsecond must fail as a
// -bin flag error (exit 2, usage) before anything replays, not panic in the
// fold; a valid width replays the transfer.
func TestReplayBinMustBePositive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(f)
	sink.Emit(obs.Event{T: sim.Time(sim.Second), Kind: obs.KindDiskTransfer, Pages: 16, Dur: 4 * sim.Millisecond, Prio: "demand"})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, bin := range []string{"0", "-1s", "500ns"} {
		out, code := pagetrace(t, "-replay", path, "-bin", bin)
		if code != 2 || strings.Contains(out, "panic:") || !strings.Contains(out, `invalid value "`+bin+`" for flag -bin`) {
			t.Errorf("-bin %s: exit %d, output:\n%s", bin, code, out)
		}
	}
	out, code := pagetrace(t, "-replay", path, "-bin", "2s")
	if code != 0 || !strings.Contains(out, "# replayed 1 transfers for node 0") {
		t.Errorf("-bin 2s: exit %d, output:\n%s", code, out)
	}
}
