//! Set-associative L1 cache model with random replacement.
//!
//! The paper notes that "due to cache random replacement policy, Rocket chip
//! computes the number of cycles nondeterministically" and argues that
//! averaging over many samples still yields statistically meaningful
//! results. This model reproduces that property deterministically: the
//! random victim choice comes from a seeded xorshift generator, so a given
//! seed replays exactly while different seeds exhibit the same spread the
//! paper describes.

// Rocket's L1 geometry, shared by the instruction and data caches: 16 KiB,
// 4-way, 64-byte lines.
const SIZE_BYTES: u64 = 16 * 1024;
const WAYS: usize = 4;
const LINE_BYTES: u64 = 64;
const SETS: u64 = SIZE_BYTES / (WAYS as u64 * LINE_BYTES);
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();
const SET_MASK: u64 = SETS - 1;
const _: () = assert!(
    SETS.is_power_of_two() && LINE_BYTES.is_power_of_two(),
    "set count and line size must be powers of two"
);

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

/// A tag-only set-associative cache with random replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `tags[set * WAYS + way]`.
    tags: Vec<Option<u64>>,
    rng: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty L1 whose replacement generator starts from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Cache {
            tags: vec![None; SETS as usize * WAYS],
            rng: seed | 1, // xorshift must not start at zero
            stats: CacheStats::default(),
        }
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64: deterministic, cheap, well-distributed enough for
        // victim selection.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Performs one access; returns true on hit. Misses fill the line
    /// (allocate-on-miss for both reads and writes).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> LINE_SHIFT;
        let set = (line & SET_MASK) as usize;
        let tag = line >> SET_MASK.count_ones();
        let base = set * WAYS;
        for way in 0..WAYS {
            if self.tags[base + way] == Some(tag) {
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        // Prefer an invalid way; otherwise evict a random victim.
        let victim = (0..WAYS)
            .find(|&w| self.tags[base + w].is_none())
            .unwrap_or_else(|| (self.next_random() % WAYS as u64) as usize);
        self.tags[base + victim] = Some(tag);
        false
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = Cache::new(1);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same 64-byte line");
        assert!(!c.access(0x1040), "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn associativity_holds_conflicting_lines() {
        let mut c = Cache::new(1);
        // 64 sets * 64-byte lines => same set every 4096 bytes.
        for i in 0..4u64 {
            assert!(!c.access(0x1000 + i * 4096));
        }
        for i in 0..4u64 {
            assert!(c.access(0x1000 + i * 4096), "all four ways resident");
        }
        // A fifth conflicting line must evict someone.
        assert!(!c.access(0x1000 + 4 * 4096));
        let survivors = (0..5u64)
            .filter(|i| {
                let mut probe = c.clone();
                probe.access(0x1000 + i * 4096)
            })
            .count();
        assert_eq!(survivors, 4);
    }

    #[test]
    fn geometry_is_16_kib_4_way_64_sets() {
        // Five lines `stride` bytes apart: how many stay resident.
        let resident = |stride: u64| {
            let mut c = Cache::new(1);
            for i in 0..5 {
                c.access(i * stride);
            }
            (0..5).filter(|i| c.clone().access(i * stride)).count()
        };
        // Lines 16 KiB apart always share a set, which holds four ways.
        assert_eq!(resident(16 * 1024), 4);
        // 4 KiB apart they still share one: 64 sets of 64-byte lines.
        assert_eq!(resident(4096), 4);
        // 2 KiB apart they spread over two sets.
        assert_eq!(resident(2048), 5);
    }

    #[test]
    fn replacement_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut c = Cache::new(seed);
            // Thrash one set, then record the exact hit pattern.
            let pattern: Vec<bool> = (0..64u64)
                .map(|i| c.access(0x1000 + (i % 8) * 4096))
                .collect();
            pattern
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(1), run(99), "different seeds shuffle victims");
    }
}
