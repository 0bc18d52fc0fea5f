package storage

import (
	"testing"
)

// TestVersionPendingAndSettle covers the quorum-replication version
// lifecycle: pending versions count toward the effective version, commit
// promotes them to committed versions, abort drops them without a bump.
func TestVersionPendingAndSettle(t *testing.T) {
	s := NewStore()
	if v := s.Version("bal_r0"); v != 0 {
		t.Fatalf("fresh version = %d", v)
	}
	if err := s.SetVerPending("T1", map[string]uint64{"bal_r0": 3, "bal_r1": 3}); err != nil {
		t.Fatal(err)
	}
	if v := s.Version("bal_r0"); v != 0 {
		t.Errorf("pending leaked into committed version: %d", v)
	}
	if v := s.EffectiveVersion("bal_r0", ""); v != 3 {
		t.Errorf("effective version = %d, want 3", v)
	}
	if err := s.SettleVersions("T1", true); err != nil {
		t.Fatal(err)
	}
	if v := s.Version("bal_r0"); v != 3 {
		t.Errorf("committed version = %d, want 3", v)
	}
	if v := s.EffectiveVersion("bal_r1", ""); v != 3 {
		t.Errorf("effective after settle = %d, want 3", v)
	}

	// Abort path: pending version vanishes without bumping.
	if err := s.SetVerPending("T2", map[string]uint64{"bal_r0": 4}); err != nil {
		t.Fatal(err)
	}
	if v := s.EffectiveVersion("bal_r0", ""); v != 4 {
		t.Errorf("effective with pending = %d, want 4", v)
	}
	if err := s.SettleVersions("T2", false); err != nil {
		t.Fatal(err)
	}
	if v := s.EffectiveVersion("bal_r0", ""); v != 3 {
		t.Errorf("effective after abort = %d, want 3", v)
	}
	// Settling an unknown transaction is a no-op.
	if err := s.SettleVersions("T9", true); err != nil {
		t.Fatal(err)
	}
}

// TestSetVersionGuarded: anti-entropy applies only strictly newer
// versions.
func TestSetVersionGuarded(t *testing.T) {
	s := NewStore()
	if ok, err := s.SetVersion("bal", 2); err != nil || !ok {
		t.Fatalf("SetVersion(2) = %v, %v", ok, err)
	}
	if ok, _ := s.SetVersion("bal", 2); ok {
		t.Error("equal version applied")
	}
	if ok, _ := s.SetVersion("bal", 1); ok {
		t.Error("older version applied")
	}
	if ok, _ := s.SetVersion("bal", 5); !ok {
		t.Error("newer version refused")
	}
	if v := s.Version("bal"); v != 5 {
		t.Errorf("version = %d", v)
	}
}

// TestVersionRecovery: the version and pending tables survive a crash —
// both through raw WAL replay and through a checkpointed log.
func TestVersionRecovery(t *testing.T) {
	s := NewStore()
	if _, err := s.SetVersion("bal_r0", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVerPending("T1", map[string]uint64{"bal_r0": 8, "seats_r2": 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVerPending("T2", map[string]uint64{"seats_r2": 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SettleVersions("T2", true); err != nil {
		t.Fatal(err)
	}

	check := func(r *Store, label string) {
		t.Helper()
		if v := r.Version("bal_r0"); v != 7 {
			t.Errorf("%s: bal_r0 version = %d, want 7", label, v)
		}
		if v := r.Version("seats_r2"); v != 2 {
			t.Errorf("%s: seats_r2 version = %d, want 2", label, v)
		}
		if v := r.EffectiveVersion("bal_r0", ""); v != 8 {
			t.Errorf("%s: bal_r0 effective = %d, want 8 (T1 still pending)", label, v)
		}
		// T1's pending entry must still settle after recovery.
		if err := r.SettleVersions("T1", true); err != nil {
			t.Fatal(err)
		}
		if v := r.Version("bal_r0"); v != 8 {
			t.Errorf("%s: bal_r0 after settle = %d, want 8", label, v)
		}
	}

	r1, err := Recover(s.WALBytes())
	if err != nil {
		t.Fatal(err)
	}
	check(r1, "replay")

	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(s.WALBytes())
	if err != nil {
		t.Fatal(err)
	}
	check(r2, "checkpoint")

	snap := s.VersionsSnapshot()
	if snap["bal_r0"] != 7 || snap["seats_r2"] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
}
