package testbed

import "testing"

// TestRunClusterMeetsTargets is the ISSUE's acceptance bar for the
// sharded-cluster tentpole: router fan-in is bit-identical to the
// single-backend control, and a mid-walk (mid-burst) 1→2 shard
// migration loses zero tracks, re-routes the pending captures, and
// produces exactly the control's fix stream (RMSE delta 0.000 cm).
func TestRunClusterMeetsTargets(t *testing.T) {
	tb := New()
	_, res, err := tb.RunCluster(DefaultClusterOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fan-in mismatches %d, migration mismatches %d, tracks lost %d, rmse delta %.3f cm, moved %d/%d/%d (clients/tracks/pending)",
		res.FanInMismatches, res.StepMismatches, res.TracksLost, res.RMSEDeltaCM,
		res.MovedClients, res.MovedTracks, res.MovedPending)
	if res.FanInMismatches != 0 {
		t.Fatalf("%d fan-in fixes diverged from the single-backend control, want 0", res.FanInMismatches)
	}
	if res.StepMismatches != 0 {
		t.Fatalf("%d migration-run fixes diverged from the control, want 0", res.StepMismatches)
	}
	if res.TracksLost != 0 {
		t.Fatalf("%d tracks lost across the migration, want 0", res.TracksLost)
	}
	if res.RMSEDeltaCM != 0 {
		t.Fatalf("migration-run RMSE differs from control by %.6f cm, want exactly 0", res.RMSEDeltaCM)
	}
	if res.MovedTracks != 1 {
		t.Fatalf("migrated %d tracks, want exactly 1 (the walker)", res.MovedTracks)
	}
	if res.MovedPending == 0 {
		t.Fatal("migration moved no pending captures — the mid-burst handoff path was not exercised")
	}
	if !res.WalkerMigrated {
		t.Fatal("walker track is not on the gaining shard (or still on the losing one)")
	}
	if res.WorkspaceLeaks != 0 {
		t.Fatalf("pooled ingest workspaces leaked: %d", res.WorkspaceLeaks)
	}
}
