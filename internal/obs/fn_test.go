package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// TestEventJSONMatchesEarlierFormat: every committed trace event, written
// when Fn was a string field, decodes and encodes back to exactly its
// own bytes, so interning changes no trace, checkpoint or shard file.
func TestEventJSONMatchesEarlierFormat(t *testing.T) {
	for _, line := range eventSeeds(t) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		enc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if string(enc) != string(line) {
			t.Errorf("re-encoded\n got %s\nwant %s", enc, line)
		}
	}
}

// TestMarkerFns: the markers obs records itself have fixed IDs and
// encode as their names; ID 0 is the empty name, omitted from an event.
func TestMarkerFns(t *testing.T) {
	for id, name := range map[FnID]string{0: "", fnXCall: XCallFn, fnMigrate: MigrateFn,
		fnStorageRebuild: StorageRebuildFn, fnStorageAntiEntropy: StorageAntiEntropyFn,
		fnStorageRepair: StorageRepairFn, fnStorageQuorumLost: StorageQuorumLostFn} {
		if FnOf(name) != id || id.String() != name {
			t.Errorf("marker %q: FnOf %d, ID %d names %q", name, FnOf(name), id, id.String())
		}
	}
	enc, err := json.Marshal(Event{Kind: EvReboot})
	if err != nil || string(enc) != `{"seq":0,"vtime_us":0,"kind":"Reboot","comp":0,"gen":0}` {
		t.Errorf("event without a function encodes as %s (%v)", enc, err)
	}
	if _, err := FnID(MaxFnNames - 1).MarshalJSON(); err == nil {
		t.Error("an ID no name has encodes without error")
	}
}

// TestFnTableBounds: decoding stops growing a table at MaxDecodedFnNames
// with a typed error, names already in the table still decode, and
// names the program binds still fit in the headroom above the bound.
func TestFnTableBounds(t *testing.T) {
	tb := new(fnTable)
	for i := 0; i < MaxDecodedFnNames; i++ {
		if _, err := tb.intern(fmt.Sprint("decoded", i), MaxDecodedFnNames); err != nil {
			t.Fatalf("name %d: %v", i, err)
		}
	}
	_, err := tb.intern("one-more", MaxDecodedFnNames)
	var full *FnTableFullError
	if !errors.As(err, &full) || full.Name != "one-more" || full.Limit != MaxDecodedFnNames {
		t.Fatalf("decode past the bound: err = %v, want *FnTableFullError", err)
	}
	if id, err := tb.intern("decoded7", MaxDecodedFnNames); err != nil || id != 7 {
		t.Fatalf("known name after the bound: id %d, err %v", id, err)
	}
	if id, err := tb.intern("bound", MaxFnNames); err != nil || int(id) != MaxDecodedFnNames {
		t.Fatalf("bound name above the decode bound: id %d, err %v", id, err)
	}
	for i := MaxDecodedFnNames + 1; i < MaxFnNames; i++ {
		if _, err := tb.intern(fmt.Sprint("bound", i), MaxFnNames); err != nil {
			t.Fatalf("bound name %d: %v", i, err)
		}
	}
	if _, err := tb.intern("past the cap", MaxFnNames); !errors.As(err, &full) {
		t.Fatalf("name past the table's cap: err = %v, want *FnTableFullError", err)
	}
	if n := tb.count.Load(); n != MaxFnNames {
		t.Fatalf("table holds %d names, want its cap %d", n, MaxFnNames)
	}
}
