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

/// Line number that no address maps to (line numbers have at most 58
/// bits).
const NO_LINE: u64 = u64::MAX;

/// A tag-only set-associative cache with random replacement.
///
/// Every access leaves its line resident, and only accesses change the
/// tags, so an access to the line of the access before it is a hit. Such
/// repeats, most fetches and many data accesses, count a hit without
/// searching the tags.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `tags[set * WAYS + way]`.
    tags: Vec<Option<u64>>,
    rng: u64,
    stats: CacheStats,
    /// The line of the last access.
    last_line: u64,
}

impl Cache {
    /// Builds an empty L1 whose replacement generator starts from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Cache {
            tags: vec![None; SETS as usize * WAYS],
            rng: seed | 1, // xorshift must not start at zero
            stats: CacheStats::default(),
            last_line: NO_LINE,
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
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> LINE_SHIFT;
        if line == self.last_line {
            self.stats.hits += 1;
            return true;
        }
        self.last_line = line;
        self.search(line)
    }

    /// Looks `line` up in its set, filling it on a miss; returns true on
    /// hit.
    fn search(&mut self, line: u64) -> bool {
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

    /// An access that always searches the tags: [`Cache::access`] without
    /// its repeated-line shortcut.
    fn access_searching(cache: &mut Cache, addr: u64) -> bool {
        cache.search(addr >> LINE_SHIFT)
    }

    #[test]
    fn repeated_line_shortcut_changes_no_outcome() {
        // Seeded streams of long same-line runs (fetch-like) mixed with
        // jumps among lines that conflict in a few sets, so random
        // evictions happen between repeats.
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut memoized = Cache::new(seed);
            let mut searching = Cache::new(seed);
            let mut addr = 0x8000_0000u64;
            for _ in 0..20_000 {
                let r = next();
                addr = match r % 8 {
                    // Run on: the next word, usually on the same line.
                    0..=4 => addr.wrapping_add(4),
                    // Another word of the same line.
                    5 => (addr & !(LINE_BYTES - 1)) | ((r >> 8) % LINE_BYTES),
                    // One of 18 lines sharing 3 sets: forces evictions.
                    6 => 0x8000_0000 + ((r >> 8) % 3) * LINE_BYTES + ((r >> 16) % 6) * 4096,
                    // Anywhere in a 64 KiB window.
                    _ => 0x8000_0000 + (r >> 8) % 0x1_0000,
                };
                assert_eq!(
                    memoized.access(addr),
                    access_searching(&mut searching, addr),
                    "seed {seed}, address {addr:#x}"
                );
            }
            assert_eq!(memoized.stats(), searching.stats(), "seed {seed}");
            assert_eq!(memoized.tags, searching.tags, "seed {seed}");
            assert_eq!(memoized.rng, searching.rng, "seed {seed}");
        }
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
