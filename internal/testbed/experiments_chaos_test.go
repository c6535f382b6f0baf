package testbed

import "testing"

// TestRunChaosMeetsTargets is the ISSUE's acceptance bar for the
// hostile-network tentpole: killing 1 of the walker's APs mid-walk
// leaves every tracked client receiving fixes (the walker's flagged
// degraded), leaks zero pooled captures, keeps /healthz up, and moves
// the surviving client's smoothed RMSE by exactly nothing; a stalled
// connection is reaped within twice the idle timeout without hurting
// a healthy one; corrupted frames quarantine their AP and cooldown
// readmits it; an overload burst six times the queue's depth ends in a
// fix for every job, held back by the bounded queue, none dropped.
func TestRunChaosMeetsTargets(t *testing.T) {
	tb := New()
	_, res, err := tb.RunChaos(DefaultChaosOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("degraded fixes %d/%d (missed %d), survivor delta %.3fcm (%d mismatches), reap %v/%v, quarantines %d, burst %d fixes / %d failed",
		res.DegradedFixes, res.PostKillSteps, res.MissedFixes, res.RMSEDeltaCM,
		res.SurvivorMismatches, res.ReapedWithin, res.ReapBound, res.Quarantines, res.BurstFixes, res.BurstFailures)

	// Phase A: degraded serving.
	if res.MissedFixes != 0 {
		t.Fatalf("walker missed %d fixes after the AP kill, want 0", res.MissedFixes)
	}
	if res.DegradedFixes != res.PostKillSteps {
		t.Fatalf("only %d of %d post-kill fixes were degraded-flagged", res.DegradedFixes, res.PostKillSteps)
	}
	if res.DegradedFlushes != uint64(res.PostKillSteps) {
		t.Fatalf("backend counted %d degraded flushes for %d post-kill steps", res.DegradedFlushes, res.PostKillSteps)
	}
	if res.SurvivorMismatches != 0 || res.RMSEDeltaCM != 0 {
		t.Fatalf("surviving client perturbed by the fault: %d mismatches, delta %.6f cm",
			res.SurvivorMismatches, res.RMSEDeltaCM)
	}
	if res.LeakedWorkspaces != 0 {
		t.Fatalf("%d pooled ingest workspaces leaked", res.LeakedWorkspaces)
	}
	if !res.HealthzOK || !res.MetricsOK {
		t.Fatalf("ops surface down on the degraded server: healthz %v metrics %v", res.HealthzOK, res.MetricsOK)
	}

	// Phase B: idle reap.
	if res.ReapedWithin > res.ReapBound {
		t.Fatalf("slow loris survived %v, bound %v", res.ReapedWithin, res.ReapBound)
	}
	if res.DeadlineReaped != 1 {
		t.Fatalf("DeadlineReaped = %d, want 1", res.DeadlineReaped)
	}
	if !res.HealthyConnSurvived {
		t.Fatal("healthy connection stopped ingesting after the reap")
	}
	if res.Truncations == 0 {
		t.Fatal("chaos fired no truncations")
	}

	// Phase C: quarantine.
	if res.BitFlips == 0 {
		t.Fatal("chaos fired no bit flips")
	}
	if res.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", res.Quarantines)
	}
	if res.QuarantineDropped == 0 {
		t.Fatal("no captures dropped while the AP was quarantined")
	}
	if !res.Readmitted {
		t.Fatal("AP not readmitted after cooldown")
	}

	// Phase D: the bounded queue holds the burst back.
	if res.BurstFixes != chaosBurstJobs || res.BurstFailures != 0 {
		t.Fatalf("overload burst: %d fixes, %d failed, want %d fixes, 0 failed",
			res.BurstFixes, res.BurstFailures, chaosBurstJobs)
	}
}
