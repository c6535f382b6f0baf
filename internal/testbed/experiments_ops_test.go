package testbed

import "testing"

// TestRunOpsMeetsTargets is the ISSUE's acceptance bar for the
// snapshot/restore tentpole: a server killed mid-walk and restored
// from its snapshot loses zero tracks and reproduces the uninterrupted
// run's smoothed trajectory exactly (RMSE delta 0, no per-step
// divergence), and the ops endpoint serves a scrapeable exposition.
func TestRunOpsMeetsTargets(t *testing.T) {
	tb := New()
	_, res, err := tb.RunOps(DefaultOpsOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restored %d tracks (%d lost), %d step mismatches, rmse delta %.3f cm",
		res.RestoredTracks, res.TracksLost, res.StepMismatches, res.RMSEDeltaCM)
	if res.TracksLost != 0 {
		t.Fatalf("%d tracks lost across the restart, want 0", res.TracksLost)
	}
	if res.RestoredTracks != 2 {
		t.Fatalf("restored %d tracks, want 2 (walker + stationary)", res.RestoredTracks)
	}
	if res.StepMismatches != 0 {
		t.Fatalf("%d post-restore steps diverged from the uninterrupted run, want 0", res.StepMismatches)
	}
	if res.RMSEDeltaCM != 0 {
		t.Fatalf("restored-run RMSE differs from control by %.6f cm, want exactly 0", res.RMSEDeltaCM)
	}
	if !res.MetricsOK {
		t.Fatal("ops metrics endpoint did not serve a valid exposition")
	}
	if res.SnapshotBytes <= 0 {
		t.Fatal("snapshot file is empty")
	}
}
