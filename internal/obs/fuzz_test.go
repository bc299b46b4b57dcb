package obs

import (
	"encoding/json"
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
