package sketch

// Reservoir is a deterministic fixed-capacity uniform sample (Vitter's
// Algorithm R) driven by a private splitmix64 stream: the same seed and
// offer sequence always select the same sample, regardless of what any
// other component draws — the property that keeps sampled HAR retention
// byte-identical across campaign worker counts. Its fields are exported
// so a checkpoint can serialize the reservoir whole and resume it
// exactly; treat them as read-only.
type Reservoir[T any] struct {
	Capacity int                `json:"capacity"`
	Seen     int64              `json:"seen"` // offers so far
	RNG      uint64             `json:"rng"`  // splitmix64 stream position
	Slots    []ReservoirSlot[T] `json:"slots"`
}

// ReservoirSlot is one retained item with its offer sequence.
type ReservoirSlot[T any] struct {
	Seq  int64 `json:"seq"`
	Item T     `json:"item"`
}

// NewReservoir returns an empty reservoir keeping at most capacity
// items, with all randomness derived from seed.
func NewReservoir[T any](capacity int, seed uint64) *Reservoir[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Reservoir[T]{Capacity: capacity, RNG: seed}
}

// next advances the splitmix64 stream.
func (r *Reservoir[T]) next() uint64 {
	r.RNG += 0x9e3779b97f4a7c15
	z := r.RNG
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Offer presents one item to the reservoir. The i-th offer survives
// with probability capacity/i (uniform without replacement). The modulo
// draw carries negligible bias at simulation scales and, unlike
// rejection sampling, consumes exactly one stream step per offer — a
// fixed draw schedule is what makes the sample order-independent of
// everything else in the shard.
func (r *Reservoir[T]) Offer(v T) {
	r.Seen++
	if len(r.Slots) < r.Capacity {
		r.Slots = append(r.Slots, ReservoirSlot[T]{Seq: r.Seen, Item: v})
		return
	}
	if r.Capacity == 0 {
		return
	}
	if j := int64(r.next() % uint64(r.Seen)); j < int64(r.Capacity) {
		r.Slots[j] = ReservoirSlot[T]{Seq: r.Seen, Item: v}
	}
}

// Len returns how many items are currently retained.
func (r *Reservoir[T]) Len() int { return len(r.Slots) }

// Items returns the retained sample in offer order.
func (r *Reservoir[T]) Items() []T {
	out := make([]T, len(r.Slots))
	idx := make([]int, len(r.Slots))
	for i := range idx {
		idx[i] = i
	}
	// Slots are replaced in place, so slot order is not offer order;
	// sort by the recorded offer sequence instead.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && r.Slots[idx[j-1]].Seq > r.Slots[idx[j]].Seq; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	for i, k := range idx {
		out[i] = r.Slots[k].Item
	}
	return out
}
