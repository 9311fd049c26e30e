// Package cache implements the set-associative, MSHR-backed caches used for
// both the per-SM L1 data caches and the per-memory-partition L2 banks
// (Table I: 16KB 4-way L1 with 64 MSHRs; 128KB 8-way L2 per channel).
//
// Loads allocate on miss; stores are write-through no-allocate, mirroring
// the GPGPU-Sim global-memory policy the paper models. Timing is owned by
// the caller: Access classifies the access and manages MSHR state, Fill
// installs the line when the refill returns.
package cache

import (
	"fmt"

	"warpedslicer/internal/assert"
	"warpedslicer/internal/obs"
)

// Result classifies an access.
type Result uint8

const (
	// Hit: line present; data available after the hit latency.
	Hit Result = iota
	// Miss: line absent; a new downstream request must be issued and an
	// MSHR has been allocated.
	Miss
	// MissMerged: line absent but an MSHR for it is already outstanding;
	// no new downstream request is needed.
	MissMerged
	// ReservationFail: no MSHR available; the access must be retried
	// (structural stall).
	ReservationFail
)

func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "merged"
	case ReservationFail:
		return "resfail"
	default:
		return fmt.Sprintf("Result(%d)", uint8(r))
	}
}

type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU stamp
}

// Stats counts cache activity.
type Stats struct {
	Loads     uint64 // load accesses (excluding MSHR-full retries)
	LoadHits  uint64
	LoadMiss  uint64 // includes merged misses
	Stores    uint64
	Fills     uint64
	Merged    uint64
	ResFails  uint64
	Evictions uint64
	Probes    uint64 // side-effect-free presence checks (Probe)
}

// fields lists every counter once, in digest order. Add, EmitObs and
// DigestInto loop over it, so a new counter is one struct field plus one
// entry here and its series name in statsNames.
func (s *Stats) fields() [len(statsNames)]*uint64 {
	return [...]*uint64{&s.Loads, &s.LoadHits, &s.LoadMiss, &s.Stores, &s.Fills,
		&s.Merged, &s.ResFails, &s.Evictions, &s.Probes}
}

// statsNames holds the series name of each fields entry, in the same order.
var statsNames = [...]string{
	"ws_cache_loads_total", "ws_cache_load_hits_total", "ws_cache_load_misses_total",
	"ws_cache_stores_total", "ws_cache_fills_total", "ws_cache_merged_total",
	"ws_cache_resfails_total", "ws_cache_evictions_total", "ws_cache_probes_total",
}

// Add accumulates o's counters into s.
func (s *Stats) Add(o *Stats) {
	dst := s.fields()
	for i, v := range o.fields() {
		*dst[i] += *v
	}
}

// MissRate returns load misses / loads.
func (s Stats) MissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadMiss) / float64(s.Loads)
}

// Cache is one set-associative cache with an MSHR file.
type Cache struct {
	sets      int    //simlint:nodigest -- config: cache geometry, fixed at construction
	assoc     int    //simlint:nodigest -- config: cache geometry, fixed at construction
	lineBytes uint64 //simlint:nodigest -- config: cache geometry, fixed at construction
	mshrMax   int    //simlint:nodigest -- config: cache geometry, fixed at construction

	lines []line // sets*assoc, row-major by set
	mshr  map[uint64]struct{}
	tick  uint64

	Stats Stats

	// EvictionAge records, for each eviction, how many cache operations
	// (the LRU clock) the victim survived since its last touch. A
	// left-shifted distribution means lines die before reuse — the
	// thrashing signature intra-SM sharing can induce.
	//simlint:nodigest -- observability: exported histogram; the digest pins Stats counters instead
	EvictionAge obs.Hist
}

// New constructs a cache. sizeBytes must be divisible by lineBytes*assoc.
func New(sizeBytes, lineBytes, assoc, mshrs int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || assoc <= 0 || mshrs <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d line=%d assoc=%d mshrs=%d",
			sizeBytes, lineBytes, assoc, mshrs))
	}
	if sizeBytes%(lineBytes*assoc) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by line*assoc %d", sizeBytes, lineBytes*assoc))
	}
	sets := sizeBytes / (lineBytes * assoc)
	return &Cache{
		sets:      sets,
		assoc:     assoc,
		lineBytes: uint64(lineBytes),
		mshrMax:   mshrs,
		lines:     make([]line, sets*assoc),
		mshr:      make(map[uint64]struct{}, mshrs),
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (c.lineBytes - 1) }

// setIndex distributes lines across sets; the tag is the full line address.
func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr / c.lineBytes) % uint64(c.sets))
}

// Access performs a load or store lookup.
//
// Loads: Hit, Miss (MSHR allocated; caller must send the refill request and
// later call Fill), MissMerged (caller waits on the existing refill), or
// ReservationFail (caller retries later).
//
// Stores: write-through no-allocate. A store returns Hit if the line is
// present (updating LRU) and Miss otherwise; it never allocates an MSHR and
// the caller always forwards the store downstream.
func (c *Cache) Access(addr uint64, write bool) Result {
	la := c.LineAddr(addr)
	set := c.setIndex(la)
	c.tick++

	base := set * c.assoc
	for i := 0; i < c.assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == la {
			l.used = c.tick
			if write {
				c.Stats.Stores++
			} else {
				c.Stats.Loads++
				c.Stats.LoadHits++
			}
			return Hit
		}
	}
	if write {
		c.Stats.Stores++
		return Miss
	}
	if _, ok := c.mshr[la]; ok {
		c.Stats.Loads++
		c.Stats.LoadMiss++
		c.Stats.Merged++
		return MissMerged
	}
	if len(c.mshr) >= c.mshrMax {
		c.Stats.ResFails++
		return ReservationFail
	}
	c.mshr[la] = struct{}{}
	if assert.Enabled && len(c.mshr) > c.mshrMax {
		assert.Failf("cache: MSHR overflow after allocation: %d > %d", len(c.mshr), c.mshrMax)
	}
	c.Stats.Loads++
	c.Stats.LoadMiss++
	return Miss
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or the access statistics (it counts only itself, so
// profiling probe traffic never skews hit/miss rates).
func (c *Cache) Probe(addr uint64) bool {
	c.Stats.Probes++
	la := c.LineAddr(addr)
	base := c.setIndex(la) * c.assoc
	for i := 0; i < c.assoc; i++ {
		l := c.lines[base+i]
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr (refill completion) and releases
// its MSHR if one is outstanding. Victim selection is LRU.
func (c *Cache) Fill(addr uint64) {
	la := c.LineAddr(addr)
	delete(c.mshr, la)
	set := c.setIndex(la)
	base := set * c.assoc
	c.tick++
	c.Stats.Fills++

	victim := base
	var oldest uint64 = ^uint64(0)
	for i := 0; i < c.assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == la { // already present (e.g. racing fills)
			l.used = c.tick
			return
		}
		if !l.valid {
			victim, oldest = base+i, 0
			continue
		}
		if l.used < oldest {
			victim, oldest = base+i, l.used
		}
	}
	if c.lines[victim].valid {
		c.Stats.Evictions++
		c.EvictionAge.Observe(int64(c.tick - c.lines[victim].used))
	}
	c.lines[victim] = line{tag: la, valid: true, used: c.tick}
}

// HasMSHR reports whether a refill for the line containing addr is already
// outstanding.
func (c *Cache) HasMSHR(addr uint64) bool {
	_, ok := c.mshr[c.LineAddr(addr)]
	return ok
}

// MSHRInUse returns the number of outstanding MSHRs.
func (c *Cache) MSHRInUse() int { return len(c.mshr) }

// MSHRFull reports whether no MSHR is available.
func (c *Cache) MSHRFull() bool { return len(c.mshr) >= c.mshrMax }

// Reset clears all lines, MSHRs and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.mshr = make(map[uint64]struct{}, c.mshrMax)
	c.tick = 0
	c.Stats = Stats{}
	c.EvictionAge = obs.Hist{}
}
