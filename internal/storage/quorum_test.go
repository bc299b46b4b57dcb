package storage

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"superglue/internal/fault"
	"superglue/internal/kernel"
)

// voteTracer records the quorum events a store reports, with the exact
// context argument of each call.
type voteTracer struct{ calls []string }

func (v *voteTracer) RecordStorageWrite(int)              {}
func (v *voteTracer) RecordStorageCheckpoint(int)         {}
func (v *voteTracer) RecordStorageRebuild(int, int, bool) {}
func (v *voteTracer) RecordStorageRepair(replica int, context string) {
	v.calls = append(v.calls, fmt.Sprintf("repair %d: %s", replica, context))
}
func (v *voteTracer) RecordStorageQuorumLost(context string) {
	v.calls = append(v.calls, "lost: "+context)
}

// TestQuorumReadDisagreement pins the slow path of every quorum reader at
// three replicas: a divergent minority (one replica's state mutated
// directly) is outvoted and repaired, and a three-way split with no
// majority is booked as quorum loss, answered by the lowest replica, and
// every other replica repaired from it. The booked fault.Event contexts,
// the tracer's context arguments and the repair/loss counters are exact.
// A second read after the repair must agree and book nothing.
//
// A bool cannot split three ways, so HasData's no-majority case runs at
// four replicas (a 2–2 tie).
func TestQuorumReadDisagreement(t *testing.T) {
	ck := func(class Class, id kernel.Word) key { return key{class, id} }
	cases := []struct {
		name     string
		replicas int
		mutate   func(reps []*replica)
		read     func(s *Store) string
		want     string
		events   []string
		calls    []string
		repairs  uint64
		lost     uint64
	}{
		{
			name:     "resolve/minority",
			replicas: 3,
			mutate:   func(reps []*replica) { reps[0].state.remap[ck(testClass, 1)] = 99 },
			read:     func(s *Store) string { return fmt.Sprint(s.Resolve(testClass, 1)) },
			want:     "6",
			events:   []string{"storage replica 0 divergent on resolve class 1 id 1; repaired from replica 1"},
			calls:    []string{"repair 0: resolve class 1 id 1"},
			repairs:  1,
		},
		{
			name:     "resolve/no-majority",
			replicas: 3,
			mutate: func(reps []*replica) {
				reps[1].state.remap[ck(testClass, 1)] = 98
				reps[2].state.remap[ck(testClass, 1)] = 99
			},
			read: func(s *Store) string { return fmt.Sprint(s.Resolve(testClass, 1)) },
			want: "6",
			events: []string{
				"storage quorum lost on resolve class 1 id 1: no majority across 3 replicas",
				"storage replica 1 divergent on resolve class 1 id 1; repaired from replica 0",
				"storage replica 2 divergent on resolve class 1 id 1; repaired from replica 0",
			},
			calls: []string{
				"lost: resolve class 1 id 1",
				"repair 1: resolve class 1 id 1",
				"repair 2: resolve class 1 id 1",
			},
			repairs: 2,
			lost:    1,
		},
		{
			name:     "has-data/minority",
			replicas: 3,
			mutate:   func(reps []*replica) { delete(reps[2].state.slices, ck(testClass, 3)) },
			read:     func(s *Store) string { return fmt.Sprint(s.HasData(testClass, 3)) },
			want:     "true",
			events:   []string{"storage replica 2 divergent on has-data class 1 id 3; repaired from replica 0"},
			calls:    []string{"repair 2: has-data class 1 id 3"},
			repairs:  1,
		},
		{
			name:     "has-data/no-majority",
			replicas: 4,
			mutate: func(reps []*replica) {
				delete(reps[0].state.slices, ck(testClass, 3))
				delete(reps[1].state.slices, ck(testClass, 3))
			},
			read: func(s *Store) string { return fmt.Sprint(s.HasData(testClass, 3)) },
			want: "false",
			events: []string{
				"storage quorum lost on has-data class 1 id 3: no majority across 4 replicas",
				"storage replica 2 divergent on has-data class 1 id 3; repaired from replica 0",
				"storage replica 3 divergent on has-data class 1 id 3; repaired from replica 0",
			},
			calls: []string{
				"lost: has-data class 1 id 3",
				"repair 2: has-data class 1 id 3",
				"repair 3: has-data class 1 id 3",
			},
			repairs: 2,
			lost:    1,
		},
		{
			name:     "lookup-creator/minority",
			replicas: 3,
			mutate: func(reps []*replica) {
				reps[1].state.creators[ck(testClass, 4)] = CreatorRecord{Creator: 3, Meta: []kernel.Word{41}}
			},
			read: func(s *Store) string {
				rec, ok := s.LookupCreator(testClass, 4)
				return fmt.Sprint(rec, ok)
			},
			want:    "{3 [40]} true",
			events:  []string{"storage replica 1 divergent on lookup-creator class 1 id 4; repaired from replica 0"},
			calls:   []string{"repair 1: lookup-creator class 1 id 4"},
			repairs: 1,
		},
		{
			name:     "lookup-creator/no-majority",
			replicas: 3,
			mutate: func(reps []*replica) {
				reps[0].state.creators[ck(testClass, 4)] = CreatorRecord{Creator: 7, Meta: []kernel.Word{40}}
				delete(reps[1].state.creators, ck(testClass, 4))
			},
			read: func(s *Store) string {
				rec, ok := s.LookupCreator(testClass, 4)
				return fmt.Sprint(rec, ok)
			},
			want: "{7 [40]} true",
			events: []string{
				"storage quorum lost on lookup-creator class 1 id 4: no majority across 3 replicas",
				"storage replica 1 divergent on lookup-creator class 1 id 4; repaired from replica 0",
				"storage replica 2 divergent on lookup-creator class 1 id 4; repaired from replica 0",
			},
			calls: []string{
				"lost: lookup-creator class 1 id 4",
				"repair 1: lookup-creator class 1 id 4",
				"repair 2: lookup-creator class 1 id 4",
			},
			repairs: 2,
			lost:    1,
		},
		{
			name:     "read/minority",
			replicas: 3,
			mutate:   func(reps []*replica) { reps[1].state.slices[ck(testClass, 2)][0].Sum ^= 1 },
			read: func(s *Store) string {
				data, err := s.ReadAll(testClass, 2)
				return fmt.Sprintf("%q %v", data, err)
			},
			want:    `"cccccc" <nil>`,
			events:  []string{"storage replica 1 divergent on read class 1 id 2; repaired from replica 0"},
			calls:   []string{"repair 1: read class 1 id 2"},
			repairs: 1,
		},
		{
			name:     "read/no-majority",
			replicas: 3,
			mutate: func(reps []*replica) {
				reps[1].state.slices[ck(testClass, 2)][0].Offset = 1
				reps[2].state.slices[ck(testClass, 2)][0].Sum ^= 1
			},
			read: func(s *Store) string {
				data, err := s.ReadAll(testClass, 2)
				return fmt.Sprintf("%q %v", data, err)
			},
			want: `"cccccc" <nil>`,
			events: []string{
				"storage quorum lost on read class 1 id 2: no majority across 3 replicas",
				"storage replica 1 divergent on read class 1 id 2; repaired from replica 0",
				"storage replica 2 divergent on read class 1 id 2; repaired from replica 0",
			},
			calls: []string{
				"lost: read class 1 id 2",
				"repair 1: read class 1 id 2",
				"repair 2: read class 1 id 2",
			},
			repairs: 2,
			lost:    1,
		},
		{
			name:     "creators/minority",
			replicas: 3,
			mutate:   func(reps []*replica) { reps[2].state.creators[ck(testClass, 9)] = CreatorRecord{Creator: 3} },
			read:     func(s *Store) string { return fmt.Sprint(s.Creators(testClass)) },
			want:     "[2 3 4 5 6]",
			events:   []string{"storage replica 2 divergent on creators class 1; repaired from replica 0"},
			calls:    []string{"repair 2: creators class 1"},
			repairs:  1,
		},
		{
			name:     "creators/no-majority",
			replicas: 3,
			mutate: func(reps []*replica) {
				delete(reps[1].state.creators, ck(testClass, 5))
				reps[2].state.creators[ck(testClass, 9)] = CreatorRecord{Creator: 3}
			},
			read: func(s *Store) string { return fmt.Sprint(s.Creators(testClass)) },
			want: "[2 3 4 5 6]",
			events: []string{
				"storage quorum lost on creators class 1: no majority across 3 replicas",
				"storage replica 1 divergent on creators class 1; repaired from replica 0",
				"storage replica 2 divergent on creators class 1; repaired from replica 0",
			},
			calls: []string{
				"lost: creators class 1",
				"repair 1: creators class 1",
				"repair 2: creators class 1",
			},
			repairs: 2,
			lost:    1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, cm := newReplicatedStore(tc.replicas)
			populate(t, s, cm)
			tr := &voteTracer{}
			s.SetObserver(tr)
			tc.mutate(s.reps)
			if got := tc.read(s); got != tc.want {
				t.Fatalf("read = %s; want %s", got, tc.want)
			}
			var events []string
			for _, e := range s.Faults() {
				if e.Kind != fault.KindStorageCorruption || e.Component != 42 {
					t.Fatalf("booked %v; want a storage-corruption event on component 42", e)
				}
				events = append(events, e.Context)
			}
			if !reflect.DeepEqual(events, tc.events) {
				t.Fatalf("booked contexts:\n  %q\nwant:\n  %q", events, tc.events)
			}
			if !reflect.DeepEqual(tr.calls, tc.calls) {
				t.Fatalf("tracer calls:\n  %q\nwant:\n  %q", tr.calls, tc.calls)
			}
			if got := s.QuorumRepairs(); got != tc.repairs {
				t.Fatalf("QuorumRepairs = %d; want %d", got, tc.repairs)
			}
			if got := s.QuorumLost(); got != tc.lost {
				t.Fatalf("QuorumLost = %d; want %d", got, tc.lost)
			}
			if got := s.CorruptionsDetected(); got != tc.repairs {
				t.Fatalf("CorruptionsDetected = %d; want %d (one per repaired replica)", got, tc.repairs)
			}
			// The repair made every replica agree: reading again returns
			// the same answer and books nothing.
			if got := tc.read(s); got != tc.want {
				t.Fatalf("second read = %s; want %s", got, tc.want)
			}
			if n := len(s.Faults()); n != len(tc.events) {
				t.Fatalf("second read booked %d more events", n-len(tc.events))
			}
		})
	}
}

// TestQuorumReadAllIdenticalCorruptCopies pins the one agreement that
// still votes: replicas whose extent lists are identical but fail their
// checksum. Each corrupt copy is keyed uniquely, so no majority forms;
// the read reports ErrCorrupted from replica 0, books quorum loss, and
// "repairs" the others from it.
func TestQuorumReadAllIdenticalCorruptCopies(t *testing.T) {
	s, cm := newReplicatedStore(3)
	populate(t, s, cm)
	tr := &voteTracer{}
	s.SetObserver(tr)
	for _, r := range s.reps {
		r.state.slices[key{testClass, 2}][0].Sum ^= 1
	}
	if _, err := s.ReadAll(testClass, 2); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("ReadAll err = %v; want ErrCorrupted", err)
	}
	want := []string{
		"lost: read class 1 id 2",
		"repair 1: read class 1 id 2",
		"repair 2: read class 1 id 2",
	}
	if !reflect.DeepEqual(tr.calls, want) {
		t.Fatalf("tracer calls:\n  %q\nwant:\n  %q", tr.calls, want)
	}
	if s.QuorumLost() != 1 || s.QuorumRepairs() != 2 || len(s.Faults()) != 3 {
		t.Fatalf("lost %d, repairs %d, booked %d; want 1, 2, 3", s.QuorumLost(), s.QuorumRepairs(), len(s.Faults()))
	}
}
