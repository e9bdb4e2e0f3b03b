package expt

import "testing"

func TestSyncStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	rows, err := SyncStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Policy != "orig" || rows[1].Policy != "so/ao/ai/bg" {
		t.Fatalf("rows = %+v", rows)
	}
	orig, adaptive := rows[0], rows[1]
	if adaptive.MakespanSec >= orig.MakespanSec {
		t.Errorf("adaptive makespan %v not below orig %v", adaptive.MakespanSec, orig.MakespanSec)
	}
	// Simultaneous paging must reduce barrier waiting under rank jitter.
	if adaptive.BarrierWaitSec >= orig.BarrierWaitSec {
		t.Errorf("adaptive barrier wait %v not below orig %v",
			adaptive.BarrierWaitSec, orig.BarrierWaitSec)
	}
}
