package swifi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"superglue/internal/obs"
	"superglue/internal/storage"
)

// This file implements campaign durability for the fleet-scale engine:
// the rolling campaign state (counters + merged snapshot + commit
// cursor), its checksummed on-disk form (a storage.SealFrame around
// deterministic JSON), and the config-hash discipline that keeps a
// resumed or sharded campaign from silently mixing incompatible
// configurations. See DESIGN.md §14.

// DefaultCheckpointEvery is the number of committed trials between
// checkpoint writes when Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 64

// stateVersion tags the checkpoint/shard file format.
const stateVersion = 1

// ErrHalted reports a deliberate mid-campaign stop (Config.HaltAfter):
// the trials committed so far are persisted in the checkpoint file, and
// a -resume run continues from the next uncommitted trial.
var ErrHalted = errors.New("swifi: campaign halted after the requested trial count (checkpoint written)")

// CampaignState is the complete rolling state of one campaign (or one
// shard of one): everything the streaming merger has folded so far,
// plus the identity needed to validate a resume or a shard merge. It is
// what a checkpoint file and a shard file contain — persisting it and
// loading it back loses nothing, so an interrupted-then-resumed
// campaign is byte-identical to an uninterrupted one.
type CampaignState struct {
	// Version is the file-format version (stateVersion).
	Version int `json:"version"`
	// ConfigHash fingerprints every outcome-relevant Config field (see
	// Config.Hash); a resume or shard merge with a different hash is
	// refused instead of producing silently mixed results.
	ConfigHash uint64 `json:"config_hash"`
	// Service is the campaign's target service.
	Service string `json:"service"`
	// Trials is the whole campaign's trial count (all shards).
	Trials int `json:"trials"`
	// Start and End delimit this state's contiguous trial range
	// [Start, End); an unsharded campaign covers [0, Trials).
	Start int `json:"start"`
	End   int `json:"end"`
	// Next is the commit cursor: the lowest trial index not yet folded
	// into this state. Next == End means the range is complete.
	Next int `json:"next"`
	// Cores mirrors Result.Cores (multi-core table annotation).
	Cores int `json:"cores,omitempty"`
	// Shape is the campaign shape's name (rendering: shaped campaigns
	// print per-kind columns).
	Shape string `json:"shape"`
	// Traced records whether the campaign merges trace snapshots.
	Traced bool `json:"traced,omitempty"`
	// Capacity is the merged event stream's trim bound.
	Capacity int `json:"capacity"`

	// The partial Table II counters (Result's columns).
	Injected   int `json:"injected"`
	Recovered  int `json:"recovered"`
	Segfault   int `json:"segfault"`
	Propagated int `json:"propagated"`
	Other      int `json:"other"`
	Degraded   int `json:"degraded"`
	Undetected int `json:"undetected"`
	// Kinds is the per-fault-kind outcome breakdown (shaped campaigns;
	// nil for legacy ones, matching Result.Kinds).
	Kinds map[string]*KindStats `json:"kinds,omitempty"`
	// Snapshot is the rolling merged trace snapshot (nil unless Traced).
	// It is current only at observation points (trim): in between, the
	// trials committed since are held in fold and stream.
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`

	// fold accumulates, as typed counters, the aggregates of the trials
	// committed since the last observation point; it is nil when there
	// are none. trim merges it into Snapshot.
	fold *obs.Recorder
	// stream is the rolling event stream: a ring of the last Capacity
	// events committed, continuing the events a resumed state loaded. It
	// is nil until the first traced commit; trim makes its events
	// Snapshot.Events.
	stream *obs.Stream
}

// newCampaignState builds the empty state for cfg's shard range.
func newCampaignState(cfg Config, capacity, start, end int) *CampaignState {
	st := &CampaignState{
		Version:    stateVersion,
		ConfigHash: cfg.Hash(),
		Service:    cfg.Service,
		Trials:     cfg.Trials,
		Start:      start,
		End:        end,
		Next:       start,
		Shape:      cfg.Shape.String(),
		Traced:     cfg.Trace,
		Capacity:   capacity,
	}
	if cfg.Cores > 1 {
		st.Cores = cfg.Cores
	}
	if cfg.Shape != ShapeLegacy {
		st.Kinds = make(map[string]*KindStats)
	}
	if cfg.Trace {
		st.Snapshot = &obs.Snapshot{}
	}
	return st
}

// commit folds one trial — the next in index order — into the rolling
// state and advances the cursor. A traced trial's recorder is read, not
// kept: its aggregates are absorbed into the accumulator and its events
// appended to the rolling stream, so the caller may reuse it.
func (st *CampaignState) commit(tr TrialResult, rec *obs.Recorder) {
	st.Injected++
	foldKinds(st.Kinds, tr)
	switch tr.Outcome {
	case OutcomeUndetected:
		st.Undetected++
	case OutcomeRecovered:
		st.Recovered++
	case OutcomeSegfault:
		st.Segfault++
	case OutcomePropagated:
		st.Propagated++
	case OutcomeOther:
		st.Other++
	case OutcomeDegraded:
		st.Degraded++
	}
	if st.Traced {
		if st.fold == nil {
			st.fold = obs.NewRecorder(st.Capacity)
		}
		st.fold.Absorb(rec)
		if st.stream == nil {
			// The stream continues the events loaded or last handed to
			// a Result (none on a fresh campaign); trim sets
			// Snapshot.Events again.
			st.stream = obs.NewStream(st.Capacity, st.Snapshot.Events)
			st.Snapshot.Events = nil
		}
		st.stream.Append(rec)
	}
	st.Next++
}

// trim brings the rolling snapshot to its observable form, and runs
// first wherever the state is observed (Result, Persist). It renders the
// accumulator once and folds it in with Snapshot.Merge — the fold a
// per-trial merge of every committed trial would have applied, by Merge's
// associativity — and takes the stream's events: the last Capacity
// events of that merge, as Snapshot.Trim would have left them.
func (st *CampaignState) trim() {
	if st.Snapshot == nil {
		return
	}
	if st.fold != nil {
		st.Snapshot.Merge(st.fold.Snapshot())
		st.fold = nil
	}
	if st.stream != nil {
		st.Snapshot.Events = st.stream.Events()
		st.Snapshot.DroppedEvents = st.Snapshot.TotalEvents - uint64(len(st.Snapshot.Events))
	}
}

// Result renders the state as a campaign Result for the standard
// tables. Per-trial records are excluded: they are not part of the
// durable state, and the streaming engine attaches only the records it
// ran itself.
func (st *CampaignState) Result() *Result {
	res := &Result{
		Service:    st.Service,
		Cores:      st.Cores,
		Injected:   st.Injected,
		Recovered:  st.Recovered,
		Segfault:   st.Segfault,
		Propagated: st.Propagated,
		Other:      st.Other,
		Degraded:   st.Degraded,
		Undetected: st.Undetected,
		Kinds:      st.Kinds,
	}
	if st.Traced {
		// The Result takes the stream's ring as its events: the state
		// drops the stream, so no later commit writes to the ring (a
		// commit after this starts a new stream from a copy).
		st.trim()
		st.stream = nil
		snap := *st.Snapshot
		res.Recovery = &snap
	}
	return res
}

// matches validates a loaded state against the resuming configuration:
// the config hash, the shard range, and the derived capacity must all
// agree, or the resumed half would not be the same campaign.
func (st *CampaignState) matches(cfg Config, capacity, start, end int) error {
	if st.Version != stateVersion {
		return fmt.Errorf("swifi: checkpoint version %d, this binary writes %d", st.Version, stateVersion)
	}
	if st.ConfigHash != cfg.Hash() {
		return fmt.Errorf("swifi: checkpoint config hash %016x does not match this campaign (%016x): refusing to resume a different configuration", st.ConfigHash, cfg.Hash())
	}
	if st.Service != cfg.Service || st.Trials != cfg.Trials || st.Capacity != capacity {
		return fmt.Errorf("swifi: checkpoint identity mismatch (service %q trials %d capacity %d vs %q/%d/%d)",
			st.Service, st.Trials, st.Capacity, cfg.Service, cfg.Trials, capacity)
	}
	if st.Start != start || st.End != end {
		return fmt.Errorf("swifi: checkpoint covers trials [%d,%d), this run wants [%d,%d)", st.Start, st.End, start, end)
	}
	return nil
}

// Persist atomically writes the state to path: deterministic JSON inside
// a checksummed storage.SealFrame, written to a temporary file and
// renamed into place so an interrupted write can never be mistaken for
// a checkpoint (a torn frame fails its checksum anyway).
func (st *CampaignState) Persist(path string) error {
	st.trim()
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("swifi: encoding campaign state: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, storage.SealFrame(payload), 0o644); err != nil {
		return fmt.Errorf("swifi: writing campaign state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("swifi: committing campaign state: %w", err)
	}
	return nil
}

// StateError reports a checkpoint or shard file that cannot be trusted:
// a damaged frame, an undecodable or non-canonical payload, a foreign
// format version, or fields that contradict each other. A resume or a
// shard merge refuses such a file instead of panicking or continuing
// from a cursor the counters do not support.
type StateError struct {
	// Path is the file the state was read from.
	Path string
	// Reason says what is wrong with the state.
	Reason string
	// Err is the underlying frame or JSON error, if any.
	Err error
}

// Error implements error.
func (e *StateError) Error() string {
	msg := "swifi: campaign state"
	if e.Path != "" {
		msg += " " + e.Path
	}
	msg += ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap returns the underlying frame or JSON error.
func (e *StateError) Unwrap() error { return e.Err }

// stateErrorf refuses a state whose fields are wrong in themselves or
// against the other shards of a merge.
func stateErrorf(format string, args ...any) error {
	return &StateError{Reason: fmt.Sprintf(format, args...)}
}

// LoadCampaignState reads and verifies a checkpoint or shard file. A
// missing file reports os.ErrNotExist; a file that cannot be trusted is
// refused with a *StateError.
func LoadCampaignState(path string) (*CampaignState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("swifi: reading campaign state: %w", err)
	}
	st, err := decodeCampaignState(data)
	if err != nil {
		var se *StateError
		if errors.As(err, &se) {
			se.Path = path
		}
		return nil, err
	}
	return st, nil
}

// decodeCampaignState opens a sealed frame and decodes the campaign
// state inside it. Only what Persist writes is accepted: the payload
// must re-encode to exactly its own bytes, so unknown or misspelled
// fields, duplicate keys, and non-canonical numbers are refused, and an
// accepted state survives another Persist unchanged.
func decodeCampaignState(data []byte) (*CampaignState, error) {
	payload, err := storage.OpenFrame(data)
	if err != nil {
		return nil, &StateError{Reason: "damaged frame", Err: err}
	}
	st := &CampaignState{}
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, &StateError{Reason: "undecodable payload", Err: err}
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	if enc, err := json.Marshal(st); err != nil || !bytes.Equal(enc, payload) {
		return nil, &StateError{Reason: "non-canonical payload (not written by Persist)", Err: err}
	}
	// A shaped campaign's per-kind map is omitted from the file while
	// it is still empty; restore it, or a resumed campaign would fold
	// no per-kind columns at all.
	if st.Kinds == nil && st.Shape != ShapeLegacy.String() {
		st.Kinds = make(map[string]*KindStats)
	}
	return st, nil
}

// validate checks the invariants every state Run and MergeStates
// produce: a known version, a cursor inside its trial range, counters
// that account for exactly the committed trials, and a trace snapshot
// present exactly when the campaign is traced and already trimmed to
// the capacity.
func (st *CampaignState) validate() error {
	if st.Version != stateVersion {
		return stateErrorf("state version %d, this binary reads %d", st.Version, stateVersion)
	}
	if st.Start < 0 || st.Start > st.Next || st.Next > st.End || st.End > st.Trials {
		return stateErrorf("cursor outside its range: want 0 <= start %d <= next %d <= end %d <= trials %d",
			st.Start, st.Next, st.End, st.Trials)
	}
	if st.Capacity <= 0 {
		return stateErrorf("non-positive trace capacity %d", st.Capacity)
	}
	if st.Injected != st.Next-st.Start {
		return stateErrorf("%d trials injected, but the cursor has committed %d", st.Injected, st.Next-st.Start)
	}
	sum := 0
	for _, n := range []int{st.Recovered, st.Segfault, st.Propagated, st.Other, st.Degraded, st.Undetected} {
		if n < 0 || n > st.Injected {
			return stateErrorf("outcome count %d outside [0,%d]", n, st.Injected)
		}
		sum += n
	}
	if sum != st.Injected {
		return stateErrorf("outcome columns sum to %d, %d trials injected", sum, st.Injected)
	}
	names := make([]string, 0, len(st.Kinds))
	for name := range st.Kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if st.Kinds[name] == nil {
			return stateErrorf("fault kind %q has no counters", name)
		}
	}
	if st.Traced != (st.Snapshot != nil) {
		return stateErrorf("traced %t but snapshot present %t", st.Traced, st.Snapshot != nil)
	}
	if st.Snapshot != nil && len(st.Snapshot.Events) > st.Capacity {
		return stateErrorf("%d events exceed the trace capacity %d", len(st.Snapshot.Events), st.Capacity)
	}
	return nil
}

// Hash fingerprints every Config field that influences campaign output:
// the identity a checkpoint or shard file records, and a resume or
// shard merge validates. Orchestration fields — Workers, the
// checkpoint/shard/halt controls, DiscardTrials — are deliberately
// excluded: they change how the campaign executes, never what it
// computes, and shards of one campaign must share a hash.
func (cfg Config) Hash() uint64 {
	cfg = cfg.withDefaults()
	h := newFNV64()
	h.str("service", cfg.Service)
	h.num("iters", uint64(cfg.Iters))
	h.num("trials", uint64(cfg.Trials))
	h.num("seed", uint64(cfg.Seed))
	h.str("profile", fmt.Sprintf("%v", cfg.Profile))
	h.num("mode", uint64(cfg.Mode))
	h.num("watchdog", b2u(cfg.Watchdog))
	h.num("watchdog-budget", uint64(cfg.WatchdogBudget))
	h.num("trace", b2u(cfg.Trace))
	h.num("trace-capacity", uint64(cfg.TraceCapacity))
	h.num("shape", uint64(cfg.Shape))
	// The kind pool is drawn from by index, so its order is significant:
	// hash it as given, not sorted.
	for _, k := range cfg.Kinds {
		h.str("kind", k.String())
	}
	h.num("storm-faults", uint64(cfg.StormFaults))
	h.str("policy", cfg.Policy)
	names := make([]string, 0, len(cfg.FaultActions))
	for name := range cfg.FaultActions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.str("fault-action", name+"="+cfg.FaultActions[name])
	}
	if cfg.Recovery != nil {
		h.str("recovery", fmt.Sprintf("%+v", *cfg.Recovery))
	}
	h.num("cores", uint64(cfg.Cores))
	h.num("replicas", uint64(cfg.Replicas))
	return h.sum
}

// fnv64 is an incremental FNV-1a 64 hasher over labeled fields (the
// labels keep adjacent fields from aliasing each other's bytes).
type fnv64 struct{ sum uint64 }

func newFNV64() *fnv64 { return &fnv64{sum: 14695981039346656037} }

func (h *fnv64) bytes(p []byte) {
	for _, c := range p {
		h.sum ^= uint64(c)
		h.sum *= 1099511628211
	}
}

func (h *fnv64) str(label, v string) {
	h.bytes([]byte(label))
	h.bytes([]byte{0})
	h.bytes([]byte(v))
	h.bytes([]byte{0})
}

func (h *fnv64) num(label string, v uint64) {
	var w [8]byte
	for i := 0; i < 8; i++ {
		w[i] = byte(v >> (8 * i))
	}
	h.bytes([]byte(label))
	h.bytes([]byte{0})
	h.bytes(w[:])
	h.bytes([]byte{0})
}

// b2u folds a bool into the hash stream.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
