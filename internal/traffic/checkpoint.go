package traffic

import (
	"encoding/json"
	"fmt"
	"os"

	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/sketch"
)

// CheckpointVersion guards the on-disk format; a mismatch fails the
// load rather than resuming from state with different semantics.
const CheckpointVersion = 2

// UserMemory is one user's durable cross-session state — just the
// learned Alt-Svc hosts. Users with nothing learned are omitted
// entirely, so the checkpoint stays sparse in the population size.
type UserMemory struct {
	User   int      `json:"user"`
	AltSvc []string `json:"altSvc"`
}

// EdgeCache is one provider edge's cache dump.
type EdgeCache struct {
	Provider string           `json:"provider"`
	Entries  []cdn.CacheEntry `json:"entries"`
}

// Checkpoint is one traffic shard's complete resumable state, written
// atomically after every epoch. Resuming from epoch k reproduces the
// uninterrupted run byte-for-byte: epochs run in fresh universes whose
// randomness is derived from (seed, epoch), so the only state that
// crosses the boundary is exactly what is recorded here — caches, user
// memory, and the accumulated results.
type Checkpoint struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Lo and Hi are the shard's user range [Lo, Hi), and Digest hashes
	// every other input that shapes its epochs. A resume under a
	// different range or digest is refused: the state would belong to
	// another campaign.
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Digest string `json:"digest"`
	// Epoch is the next epoch to run (epochs [0, Epoch) are folded in).
	Epoch int `json:"epoch"`

	Users  []UserMemory `json:"users,omitempty"`
	Edges  []EdgeCache  `json:"edges,omitempty"`
	Report Report       `json:"report"`

	// Accumulated results so far: the shard's metric accumulator and,
	// under RetainAll, every PageLog (a sampled shard's reservoir rides
	// in State).
	Metrics *sketch.MetricAccumulator `json:"metrics"`
	Logs    []har.PageLog             `json:"logs,omitempty"`

	// State carries the shard's engine counters (events, drops,
	// recovery) accumulated over completed epochs and its
	// sampled-retention reservoir, opaque to this package (internal/core
	// owns the types).
	State json.RawMessage `json:"state,omitempty"`
}

// Save writes the checkpoint atomically (temp file + rename), so a kill
// mid-write leaves the previous epoch's checkpoint intact.
func Save(path string, cp *Checkpoint) error {
	cp.Version = CheckpointVersion
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("traffic: marshal checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("traffic: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("traffic: commit checkpoint: %w", err)
	}
	return nil
}

// Load reads a checkpoint; a missing file returns (nil, nil) — a cold
// start, not an error.
func Load(path string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("traffic: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("traffic: parse checkpoint %s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("traffic: checkpoint %s version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	return &cp, nil
}
