package storage

import (
	"testing"

	"repro/internal/polyvalue"
	"repro/internal/value"
)

func TestHasDeps(t *testing.T) {
	s := NewStore()
	if s.HasDeps("T1") {
		t.Error("empty store has deps")
	}
	s.AddDepItem("T1", "x")
	if !s.HasDeps("T1") {
		t.Error("HasDeps false after AddDepItem")
	}
	s.ClearDeps("T1")
	if s.HasDeps("T1") {
		t.Error("HasDeps true after clear")
	}
	// Removing the last site deletes the entry.
	s.AddDepSite("T2", "s1")
	if !s.HasDeps("T2") {
		t.Error("HasDeps false after AddDepSite")
	}
	s.RemoveDepSite("T2", "s1")
	if s.HasDeps("T2") {
		t.Error("entry survived last-site removal")
	}
	// Removing from an absent entry is a no-op.
	if err := s.RemoveDepSite("T9", "s1"); err != nil {
		t.Errorf("no-op removal errored: %v", err)
	}
	// An entry with items AND sites survives site removal.
	s.AddDepItem("T3", "x")
	s.AddDepSite("T3", "s1")
	s.AddDepSite("T3", "s2")
	s.RemoveDepSite("T3", "s1")
	if !s.HasDeps("T3") {
		t.Error("entry with remaining site deleted early")
	}
	items, sitesLeft := s.Deps("T3")
	if len(items) != 1 || len(sitesLeft) != 1 || sitesLeft[0] != "s2" {
		t.Errorf("Deps = %v, %v", items, sitesLeft)
	}
	// ...and its last site's removal too, while it still lists an item.
	s.RemoveDepSite("T3", "s2")
	if items, _ := s.Deps("T3"); len(items) != 1 {
		t.Errorf("entry with an unreduced item deleted with its last site: items %v", items)
	}
}

// TestDecodePayloadCorruption hits every record kind's truncation
// branches: encode each kind, then feed every strict prefix of the
// payload to the decoder — none may panic, all must error or be caught
// by framing.
func TestDecodePayloadCorruption(t *testing.T) {
	records := []Record{
		{Kind: RecPut, Item: "item", Poly: polyvalue.Simple(value.Int(1))},
		{Kind: RecPrepared, TID: "T1", Coordinator: "c",
			Writes:   map[string]polyvalue.Poly{"x": polyvalue.Simple(value.Int(1))},
			Previous: map[string]polyvalue.Poly{"x": polyvalue.Simple(value.Int(0))}},
		{Kind: RecResolved, TID: "T1"},
		{Kind: RecOutcome, TID: "T1", Committed: true},
		{Kind: RecDepItem, TID: "T1", Item: "x"},
		{Kind: RecDepSite, TID: "T1", Site: "s"},
		{Kind: RecDepSiteDone, TID: "T1", Site: "s"},
		{Kind: RecDepClear, TID: "T1"},
		{Kind: RecAwait, TID: "T1", Coordinator: "c"},
		{Kind: RecAwaitDone, TID: "T1"},
	}
	for _, rec := range records {
		payload := rec.encodePayload()
		// The full payload decodes to the same kind.
		back, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("kind %d: full payload rejected: %v", rec.Kind, err)
		}
		if back.Kind != rec.Kind {
			t.Fatalf("kind %d decoded as %d", rec.Kind, back.Kind)
		}
		// Every strict prefix errors (or decodes a smaller valid record,
		// which framing prevents in practice; here we only require no
		// panic and structured errors for the truncations that fail).
		for cut := 0; cut < len(payload); cut++ {
			_, _ = decodePayload(payload[:cut])
		}
	}
	if _, err := decodePayload(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := decodePayload([]byte{255}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestStoreRecordsRoundTripThroughReplay re-applies every record kind
// through a full WAL cycle.
func TestStoreRecordsRoundTripThroughReplay(t *testing.T) {
	s := NewStore()
	s.Put("x", polyvalue.Simple(value.Int(1)))
	s.AddDepItem("T1", "x")
	s.AddDepSite("T1", "s1")
	s.AddDepSite("T1", "s2")
	s.RemoveDepSite("T1", "s1")
	s.SetAwait("T2", "c")
	s.ClearAwait("T2")
	s.SetOutcome("T3", false)
	s.ForgetOutcome("T3") // memory-only; the WAL keeps the record
	r, err := Recover(s.WALBytes())
	if err != nil {
		t.Fatal(err)
	}
	_, sites := r.Deps("T1")
	if len(sites) != 1 || sites[0] != "s2" {
		t.Errorf("recovered dep sites = %v", sites)
	}
	if _, ok := r.Await("T2"); ok {
		t.Error("cleared await recovered")
	}
	// ForgetOutcome is volatile: replay resurrects the outcome, which is
	// safe (outcomes are immutable facts).
	if c, known := r.Outcome("T3"); !known || c {
		t.Errorf("outcome after replay = %v,%v", c, known)
	}
}
