package pipeline

import (
	"fmt"
	"strings"
)

// CacheMode selects which caching layers a run gets (see internal/artifact:
// the memo layer memoizes decoded artifacts within one process, the action
// cache persists whole stage outputs across processes).
type CacheMode int

const (
	// CacheMemory is the zero value and the pre-redesign default: the
	// in-process memo layer only.  Nothing outlives the run.
	CacheMemory CacheMode = iota
	// CacheOff disables both layers: every process re-reads and re-parses
	// its file inputs (the ablation endpoint).  Staging still hardlinks
	// where the workspace allows; that never depended on the cache mode.
	CacheOff
	// CachePersistent enables the memo layer plus the persistent
	// content-addressed action cache: per-(record,process) dataflow nodes
	// whose action digest is already cached restore their recorded outputs
	// instead of recomputing, across process restarts.
	CachePersistent
)

// String returns the -cache flag spelling of the mode.
func (m CacheMode) String() string {
	switch m {
	case CacheMemory:
		return "mem"
	case CacheOff:
		return "off"
	case CachePersistent:
		return "disk"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// CacheDirName is the default action-cache directory, created inside the
// work directory so the cache rides the same Workspace backend as the event
// products: real files on fs, memory materialized on demand on mem.
const CacheDirName = ".smcache"

// DefaultCacheMaxBytes bounds the action cache's blob bytes when
// CacheConfig.MaxBytes is zero: 256 MiB, roughly a few hundred 8-record
// events at paper scale.
const DefaultCacheMaxBytes int64 = 256 << 20

// CacheConfig is the typed cache configuration carried in Options.  The
// zero value selects the memo layer only — exactly the behavior runs had
// before the persistent cache existed.
type CacheConfig struct {
	// Mode selects the layers: off, memory (memo only, the default), or
	// persistent (memo + action cache).
	Mode CacheMode
	// Dir is the action-cache root for CachePersistent; empty selects
	// <workdir>/.smcache.  Ignored in other modes.  A relative or absolute
	// explicit Dir is used as given — note that on the mem backend only the
	// default in-workdir root is materialized to disk with the event
	// products, so an explicit Dir there stays volatile.
	Dir string
	// MaxBytes bounds the summed cached blob bytes, evicting least-recently
	// used actions beyond it.  Zero selects DefaultCacheMaxBytes; negative
	// means unbounded.
	MaxBytes int64
	// VerifyOnHit re-hashes every restored blob against its recorded
	// checksum, turning silent cache corruption into a miss at the cost of
	// one SHA-256 pass per restored file.  Truncation is always detected,
	// with or without this.
	VerifyOnHit bool
}

// maxBytes resolves the configured bound: default, unbounded, or as given.
func (c CacheConfig) maxBytes() int64 {
	switch {
	case c.MaxBytes == 0:
		return DefaultCacheMaxBytes
	case c.MaxBytes < 0:
		return 0 // the ActionCache spelling of "unbounded"
	default:
		return c.MaxBytes
	}
}

// ParseCacheFlag maps a -cache flag value to a CacheConfig:
//
//	off | none          CacheOff
//	"" | mem | memory   CacheMemory (the default)
//	disk | persistent   CachePersistent, default directory
//	disk:DIR            CachePersistent rooted at DIR
func ParseCacheFlag(s string) (CacheConfig, error) {
	mode, dir, _ := strings.Cut(strings.TrimSpace(s), ":")
	cfg := CacheConfig{Dir: dir}
	switch strings.ToLower(mode) {
	case "", "mem", "memory":
		cfg.Mode = CacheMemory
	case "off", "none":
		cfg.Mode = CacheOff
	case "disk", "persistent":
		cfg.Mode = CachePersistent
	default:
		return CacheConfig{}, fmt.Errorf("pipeline: unknown cache mode %q (want off, mem, or disk[:dir])", mode)
	}
	if cfg.Dir != "" && cfg.Mode != CachePersistent {
		return CacheConfig{}, fmt.Errorf("pipeline: cache directory %q only applies to disk mode", cfg.Dir)
	}
	return cfg, nil
}

// CacheStats reports both cache layers' activity during one run, for Result.
type CacheStats struct {
	// MemoHits and MemoMisses count decoded-artifact memo lookups.
	MemoHits, MemoMisses int64
	// ActionHits, ActionMisses, and ActionEvictions count persistent
	// action-cache restores, failed lookups (including corruption drops),
	// and size-bound evictions; zero unless Mode is CachePersistent.
	ActionHits, ActionMisses, ActionEvictions int64
	// ActionBytes is the cache's resident blob bytes at run end.
	ActionBytes int64
}

// Accumulate folds another run's counters into s (summing the counts,
// keeping the largest resident-bytes reading), for harnesses aggregating
// stats over several runs.
func (s *CacheStats) Accumulate(o CacheStats) {
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.ActionHits += o.ActionHits
	s.ActionMisses += o.ActionMisses
	s.ActionEvictions += o.ActionEvictions
	if o.ActionBytes > s.ActionBytes {
		s.ActionBytes = o.ActionBytes
	}
}
