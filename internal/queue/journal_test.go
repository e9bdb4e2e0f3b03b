package queue

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// buildJournal writes a journal with the given payloads and returns its
// bytes.
func buildJournal(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j")
	j, err := createJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func recoverBytes(t testing.TB, data []byte) (RecoveredJournal, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return recoverJournal(path)
}

func TestJournalRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(``), []byte(`{"c":3}`)}
	data := buildJournal(t, payloads...)
	rec, err := recoverBytes(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(rec.Records[i], p) {
			t.Fatalf("record %d = %q, want %q", i, rec.Records[i], p)
		}
	}
	if rec.DroppedBytes != 0 || rec.DroppedRecords != 0 || rec.Tail != int64(len(data)) {
		t.Fatalf("clean journal reported damage: %+v", rec)
	}
}

func TestJournalTornTailDropsOnlyLastRecord(t *testing.T) {
	full := buildJournal(t, []byte(`{"a":1}`), []byte(`{"bb":22}`), []byte(`{"ccc":333}`))
	// Every truncation point from "just past record 2" to "one byte short
	// of the end" must recover exactly the first two records.
	rec0, err := recoverBytes(t, full)
	if err != nil {
		t.Fatal(err)
	}
	start := rec0.Tail - int64(recordHeaderLen+len(`{"ccc":333}`))
	for cut := start + 1; cut < int64(len(full)); cut++ {
		rec, err := recoverBytes(t, full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec.Records) != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, len(rec.Records))
		}
		if rec.DroppedRecords != 1 || rec.DroppedBytes != cut-start {
			t.Fatalf("cut %d: dropped %d records / %d bytes, want 1 / %d",
				cut, rec.DroppedRecords, rec.DroppedBytes, cut-start)
		}
		if rec.Tail != start {
			t.Fatalf("cut %d: tail %d, want %d", cut, rec.Tail, start)
		}
	}
}

func TestJournalBitFlipStopsScan(t *testing.T) {
	full := buildJournal(t, []byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`))
	// Flip one payload byte of the middle record: records after it are
	// unreachable (their framing can no longer be trusted).
	off := journalHeaderLen + recordHeaderLen + len(`{"a":1}`) + recordHeaderLen
	mut := append([]byte(nil), full...)
	mut[off] ^= 0x40
	rec, err := recoverBytes(t, mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], []byte(`{"a":1}`)) {
		t.Fatalf("recovered %d records after mid-file flip", len(rec.Records))
	}
	if rec.DroppedRecords == 0 || rec.DroppedBytes == 0 {
		t.Fatalf("flip not reported: %+v", rec)
	}
}

func TestJournalOversizedLengthRejected(t *testing.T) {
	full := buildJournal(t, []byte(`{"a":1}`))
	mut := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(mut[journalHeaderLen:], uint32(maxRecordLen+1))
	rec, err := recoverBytes(t, mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.DroppedRecords != 1 {
		t.Fatalf("oversized frame: %+v", rec)
	}
}

func TestJournalBadHeaderIsCorrupt(t *testing.T) {
	for _, data := range [][]byte{
		{},
		[]byte("GSQ"),
		[]byte("XXXX\x01\x00\x00\x00"),
		[]byte("GSQJ\x63\x00\x00\x00"), // future version
	} {
		if _, err := recoverBytes(t, data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header %q: err = %v, want ErrCorrupt", data, err)
		}
	}
}

func TestJournalReopenAppendsAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	j, err := createJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{`{"a":1}`, `{"b":2}`} {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Tear the tail: append garbage that looks like a partial frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	rec, err := recoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.DroppedBytes != 3 {
		t.Fatalf("recover: %+v", rec)
	}
	j2, err := openJournal(path, rec.Tail, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append([]byte(`{"c":3}`)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rec2, err := recoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 3 || rec2.DroppedBytes != 0 {
		t.Fatalf("after reopen append: %+v", rec2)
	}
	if !bytes.Equal(rec2.Records[2], []byte(`{"c":3}`)) {
		t.Fatalf("appended record = %q", rec2.Records[2])
	}
}

// cleanReplay is the state a clean replay of a checkpoint's records
// yields, with leases reverted at now as Open reverts them, keyed by job
// ID; ok is false when the records do not read back whole.
func cleanReplay(rec RecoveredJournal, err error, now time.Time) (jobs map[string]Job, ok bool) {
	if err != nil || rec.DroppedBytes != 0 {
		return nil, false
	}
	jobs = map[string]Job{}
	for _, payload := range rec.Records {
		var e struct {
			Jobs     []*Job `json:"jobs"`
			Snapshot *struct {
				Jobs []*Job `json:"jobs"`
			} `json:"snapshot"`
		}
		if json.Unmarshal(payload, &e) != nil {
			return nil, false
		}
		all := e.Jobs
		if e.Snapshot != nil {
			all = append(all, e.Snapshot.Jobs...)
		}
		if slices.Contains(all, nil) {
			return nil, false
		}
		for _, j := range all {
			if cur, seen := jobs[j.ID]; !seen || j.Version > cur.Version {
				jobs[j.ID] = *j
			}
		}
	}
	for id, j := range jobs {
		if j.State == StateLeased {
			j.State, j.NotBefore, j.UpdatedAt = StatePending, time.Time{}, now
			j.Crashes++
			j.Version++
			jobs[id] = j
		}
	}
	return jobs, true
}

// openAsCheckpoint opens data as a queue's checkpoint: Open must fail
// with ErrCorrupt, or restore exactly the jobs a clean replay of its
// records yields, never part of them.
func openAsCheckpoint(t *testing.T, data []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, checkpointName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Skip()
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rec, err := recoverJournal(path)
	want, ok := cleanReplay(rec, err, now)
	q, _, err := Open(Options{Dir: dir, NoSync: true, Clock: func() time.Time { return now }})
	if !ok {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("checkpoint that does not read back whole: Open err %v, want ErrCorrupt", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Open of a whole checkpoint: %v", err)
	}
	defer q.Close()
	got := q.List()
	if len(got) != len(want) {
		t.Fatalf("restored %d jobs, a clean replay yields %d", len(got), len(want))
	}
	for _, j := range got {
		w, found := want[j.ID]
		gb, gerr := json.Marshal(j)
		wb, werr := json.Marshal(w)
		if !found || gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
			t.Fatalf("restored job %s differs from a clean replay:\n%s\n%s", j.ID, gb, wb)
		}
	}
}

// openAsJournal opens data as a queue's journal, enqueues one job and
// opens the queue again: the second Open must list every job the first
// listed, and the new one, whatever the first Open dropped.
func openAsJournal(t *testing.T, data []byte) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Skip()
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	opts := Options{Dir: dir, NoSync: true, Clock: func() time.Time { return now }}
	q, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open of a journal: %v", err)
	}
	want := map[string]Job{}
	for _, j := range q.List() {
		want[j.ID] = j
	}
	added, err := q.Enqueue(NewJob{Kind: "run", ParentIndex: -1})
	if err != nil {
		t.Fatalf("Enqueue after Open: %v", err)
	}
	if _, taken := want[added[0].ID]; taken {
		t.Fatalf("Enqueue reused the ID %s", added[0].ID)
	}
	want[added[0].ID] = *added[0]
	q.Close()
	q, _, err = Open(opts)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	defer q.Close()
	got := q.List()
	if len(got) != len(want) {
		t.Fatalf("second Open lists %d jobs, want the first Open's and the new one: %d", len(got), len(want))
	}
	for _, j := range got {
		w, found := want[j.ID]
		gb, gerr := json.Marshal(j)
		wb, werr := json.Marshal(w)
		if !found || gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
			t.Fatalf("job %s after the second Open:\n%s\nwant\n%s", j.ID, gb, wb)
		}
	}
}

// FuzzJournalRecover feeds arbitrary bytes (seeded with valid, truncated
// and bit-flipped journals) through recovery. Recovery must never panic,
// must only return records that re-verify against their checksums at a
// contiguous valid prefix (no partial-record resurrection), and must
// account for every byte of the file as either recovered prefix or
// dropped suffix. The same bytes opened as a checkpoint must restore
// exactly what a clean replay yields, or fail with ErrCorrupt; opened as
// a queue's journal, they must keep what a later enqueue appends.
func FuzzJournalRecover(f *testing.F) {
	valid := buildJournal(f, []byte(`{"jobs":[{"id":"j000001","state":"pending","version":1}]}`),
		[]byte(`{"jobs":[{"id":"j000001","state":"leased","version":2}]}`),
		[]byte(`{"jobs":[{"id":"j000001","state":"done","version":3}]}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])              // torn tail
	f.Add(valid[:journalHeaderLen])          // header only
	f.Add([]byte{})                          // empty file
	f.Add([]byte("GSQJ\x01\x00\x00\x00"))    // bare header
	f.Add([]byte("not a journal of anyone")) // garbage
	flipped := append([]byte(nil), valid...)
	flipped[len(valid)/2] ^= 0x01
	f.Add(flipped)
	// A checkpoint in the older layout: every job in one snapshot record.
	f.Add(buildJournal(f, []byte(`{"snapshot":{"nextSeq":2,"jobs":[{"id":"j000000","seq":0,"state":"done","version":3},{"id":"j000001","seq":1,"state":"leased","version":2}]}}`)))
	// An enqueue, then a record that passes its checksum but does not
	// decode.
	f.Add(buildJournal(f, []byte(`{"jobs":[{"id":"j000000","seq":0,"kind":"run","state":"pending","version":1}]}`),
		[]byte(`{"jobs":"not a list"}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		openAsCheckpoint(t, data)
		openAsJournal(t, data)
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		rec, err := recoverJournal(path)
		if err != nil {
			// Structural rejection (bad header) must be typed, and must
			// recover nothing.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			if len(rec.Records) != 0 {
				t.Fatalf("corrupt journal yielded %d records", len(rec.Records))
			}
			return
		}
		// Accounting: tail + dropped bytes spans the file exactly.
		if rec.Tail+rec.DroppedBytes != int64(len(data)) {
			t.Fatalf("tail %d + dropped %d != file %d", rec.Tail, rec.DroppedBytes, len(data))
		}
		if rec.DroppedBytes > 0 && rec.DroppedRecords == 0 {
			t.Fatalf("dropped %d bytes but reported 0 dropped records", rec.DroppedBytes)
		}
		if rec.DroppedBytes == 0 && rec.DroppedRecords != 0 {
			t.Fatalf("dropped 0 bytes but reported %d dropped records", rec.DroppedRecords)
		}
		// No partial-record resurrection: every returned record must
		// re-verify against the frame at its position in the file.
		off := int64(journalHeaderLen)
		for i, p := range rec.Records {
			if off+recordHeaderLen+int64(len(p)) > int64(len(data)) {
				t.Fatalf("record %d extends past the file", i)
			}
			n := binary.LittleEndian.Uint32(data[off : off+4])
			sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
			if int(n) != len(p) {
				t.Fatalf("record %d length %d does not match frame %d", i, len(p), n)
			}
			if crc32.ChecksumIEEE(p) != sum {
				t.Fatalf("record %d fails its own checksum", i)
			}
			off += recordHeaderLen + int64(n)
		}
		if off != rec.Tail {
			t.Fatalf("records end at %d but tail is %d", off, rec.Tail)
		}
		// The truncated-to-tail journal must accept appends again.
		j, err := openJournal(path, rec.Tail, false)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		if err := j.Append([]byte(`{"post":"recovery"}`)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()
		rec2, err := recoverJournal(path)
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("append after recovery lost records: %d -> %d", len(rec.Records), len(rec2.Records))
		}
	})
}
