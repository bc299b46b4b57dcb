package fault

import (
	"encoding/json"
	"testing"
)

// FuzzEnumJSON: for any input, each enum decoder either rejects it or
// yields a value whose encoding decodes back to that value. Campaign
// checkpoints and shard files carry these enums, so a decoder that
// accepted bytes it cannot reproduce would let a resumed campaign drift.
func FuzzEnumJSON(f *testing.F) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		f.Add([]byte(`"` + k.String() + `"`))
	}
	for s := Severity(0); int(s) < NumSeverities; s++ {
		f.Add([]byte(`"` + s.String() + `"`))
	}
	for d := Domain(0); int(d) < NumDomains; d++ {
		f.Add([]byte(`"` + d.String() + `"`))
	}
	for _, s := range []string{`"storage_crash"`, `"Kind(99)"`, `"fatal"x`, `'hang'`, "`cpu`", `"hang"`, `null`, `3`, ``} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[Kind](t, data)
		roundTrip[Severity](t, data)
		roundTrip[Domain](t, data)
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
