package swifi

import (
	"sort"

	"superglue/internal/obs"
)

// This file implements multi-process campaign sharding: shard i of n
// runs the contiguous trial range shardRange returns, persists its
// final CampaignState to a shard file, and MergeStates folds the shard
// states back into the canonical single-process campaign state. Because
// per-trial seeds are pure functions of (campaign seed, trial index)
// and the merge is an in-order fold, the sharded pipeline's output is
// byte-identical to the unsharded campaign's.

// shardRange returns the contiguous trial range [start, end) owned by
// shard index of count over trials. Remainder trials go one-each to the
// lowest-indexed shards, so ranges differ in size by at most one and
// concatenate exactly to [0, trials).
func shardRange(trials, index, count int) (start, end int) {
	per := trials / count
	rem := trials % count
	start = index*per + min(index, rem)
	end = start + per
	if index < rem {
		end++
	}
	return start, end
}

// MergeStates folds complete shard states into the canonical campaign
// state: the one an unsharded single-process run of the same Config
// would have produced (and persisted as its checkpoint). Shards are
// validated — same config hash and identity, every trial range
// complete, ranges concatenating exactly to [0, Trials) with no gap or
// overlap — then folded in trial order; event streams are spliced so
// sequence numbers land at their uninterrupted global positions, and
// the merged stream is trimmed to the campaign capacity. A set that fails
// validation is refused with a *StateError, as LoadCampaignState refuses
// a file it cannot trust.
func MergeStates(states []*CampaignState) (*CampaignState, error) {
	if len(states) == 0 {
		return nil, stateErrorf("no shard states to merge")
	}
	sorted := make([]*CampaignState, len(states))
	copy(sorted, states)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })

	first := sorted[0]
	next := 0
	for _, st := range sorted {
		if st.Version != stateVersion {
			return nil, stateErrorf("shard state version %d, this binary reads %d", st.Version, stateVersion)
		}
		if st.ConfigHash != first.ConfigHash || st.Service != first.Service ||
			st.Trials != first.Trials || st.Capacity != first.Capacity ||
			st.Shape != first.Shape || st.Traced != first.Traced || st.Cores != first.Cores {
			return nil, stateErrorf("shard [%d,%d) belongs to a different campaign than shard [%d,%d)",
				st.Start, st.End, first.Start, first.End)
		}
		if st.Next != st.End {
			return nil, stateErrorf("shard [%d,%d) is incomplete (committed through trial %d)", st.Start, st.End, st.Next)
		}
		if st.Start != next {
			return nil, stateErrorf("shard ranges do not tile [0,%d): expected a shard starting at %d, got [%d,%d)",
				first.Trials, next, st.Start, st.End)
		}
		next = st.End
	}
	if next != first.Trials {
		return nil, stateErrorf("shard ranges cover [0,%d) of %d trials", next, first.Trials)
	}

	out := &CampaignState{
		Version:    stateVersion,
		ConfigHash: first.ConfigHash,
		Service:    first.Service,
		Trials:     first.Trials,
		Start:      0,
		End:        first.Trials,
		Next:       first.Trials,
		Cores:      first.Cores,
		Shape:      first.Shape,
		Traced:     first.Traced,
		Capacity:   first.Capacity,
	}
	for _, st := range sorted {
		out.Injected += st.Injected
		out.Recovered += st.Recovered
		out.Segfault += st.Segfault
		out.Propagated += st.Propagated
		out.Other += st.Other
		out.Degraded += st.Degraded
		out.Undetected += st.Undetected
		if st.Kinds != nil {
			if out.Kinds == nil {
				out.Kinds = make(map[string]*KindStats, len(st.Kinds))
			}
			names := make([]string, 0, len(st.Kinds))
			for name := range st.Kinds {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				ks := st.Kinds[name]
				cur := out.Kinds[name]
				if cur == nil {
					cur = &KindStats{}
					out.Kinds[name] = cur
				}
				cur.Injected += ks.Injected
				cur.Recovered += ks.Recovered
				cur.Degraded += ks.Degraded
				cur.NotRecovered += ks.NotRecovered
				cur.Undetected += ks.Undetected
			}
		}
		if out.Traced && st.Snapshot != nil {
			if out.Snapshot == nil {
				out.Snapshot = &obs.Snapshot{}
			}
			out.Snapshot.Splice(*st.Snapshot)
			out.Snapshot.Trim(out.Capacity)
		}
	}
	return out, nil
}
