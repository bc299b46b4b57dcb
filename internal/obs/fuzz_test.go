package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEnumJSON: for any input, the EventKind and Mechanism decoders either
// reject it or yield a value whose encoding decodes back to that value.
// Campaign checkpoints and shard files round-trip trace events through
// JSON, so a resumed campaign's snapshot depends on it.
func FuzzEnumJSON(f *testing.F) {
	for k := EventKind(0); int(k) < numKinds; k++ {
		f.Add([]byte(`"` + k.String() + `"`))
	}
	for m := MechNone; int(m) < NumMechanisms; m++ {
		f.Add([]byte(`"` + m.String() + `"`))
	}
	for _, s := range []string{`"EventKind(42)"`, `"Mechanism(9)"`, `"reboot"`, `'R0'`, "`T1`", `"U0"`, `null`, `0`, ``} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[EventKind](t, data)
		roundTrip[Mechanism](t, data)
	})
}

// roundTrip decodes data into an enum of type T; if the decoder accepts
// it, the value must encode to bytes that decode back to the same value.
func roundTrip[T interface {
	comparable
	json.Marshaler
}, P interface {
	*T
	json.Unmarshaler
}](t *testing.T, data []byte) {
	var v T
	if P(&v).UnmarshalJSON(data) != nil {
		return
	}
	enc, err := v.MarshalJSON()
	if err != nil {
		t.Fatalf("%T %v from %q: MarshalJSON: %v", v, v, data, err)
	}
	var back T
	if err := P(&back).UnmarshalJSON(enc); err != nil || back != v {
		t.Fatalf("%T from %q: decoded %v, encoded %s, decoded again %v (%v)", v, data, v, enc, back, err)
	}
}

// eventSeeds returns the committed trace events, one JSON object per
// line: one event per distinct kind, function and mechanism of a traced
// SWIFI storm campaign's checkpoint, as the engine wrote it when Fn was
// still a string field.
func eventSeeds(tb testing.TB) [][]byte {
	data, err := os.ReadFile(filepath.Join("testdata", "events.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		out = append(out, line)
	}
	return out
}

// FuzzEventJSON: for any input, the Event and FnID decoders either reject
// it or yield a value whose encoding decodes back to that value, and
// never panic. A decode that would grow the function-name table past
// MaxDecodedFnNames is refused with a *FnTableFullError, so a hostile
// trace or campaign file cannot grow the table without bound.
func FuzzEventJSON(f *testing.F) {
	for _, line := range eventSeeds(f) {
		f.Add(line)
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			f.Fatal(err)
		}
		fn, err := ev.Fn.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fn)
	}
	for _, s := range []string{`""`, `"xcall"`, `"été"`, `"a\"b"`, `"\ud800"`, `null`, `7`, `{"fn":7}`, `{"fn":null}`, ``} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[FnID](t, data)
		var id FnID
		if err := id.UnmarshalJSON(data); err != nil {
			var full *FnTableFullError
			if errors.As(err, &full) && full.Limit != MaxDecodedFnNames {
				t.Fatalf("decode refused at limit %d, want %d", full.Limit, MaxDecodedFnNames)
			}
		}
		if n := fnNames.count.Load(); n > MaxDecodedFnNames {
			t.Fatalf("decoding grew the name table to %d names, past its bound %d", n, MaxDecodedFnNames)
		}
		var ev Event
		if json.Unmarshal(data, &ev) != nil {
			return
		}
		enc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("event %+v from %q: Marshal: %v", ev, data, err)
		}
		var back Event
		if err := json.Unmarshal(enc, &back); err != nil || back != ev {
			t.Fatalf("event from %q: decoded %+v, encoded %s, decoded again %+v (%v)", data, ev, enc, back, err)
		}
	})
}
