//! Guest construction keeps no memory per driver layout, batch size or
//! operand set: only what each kernel kind needs, once (its parsed unit).
//!
//! A counting global allocator tracks the live heap; this file holds one
//! test, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use codesign::framework::build_guest;
use codesign::kernels::KernelKind;
use testgen::TestConfig;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The most a kernel kind may keep after its first guest: its parsed unit
/// (19,460 bytes for Method-1 and 17,175 for Software), with room to
/// spare, but less than two linked Method-1 guests, let alone one per batch
/// size.
const KEPT_PER_KIND: isize = 24 * 1024;

#[test]
fn guest_builds_keep_memory_per_kernel_kind_only() {
    let vectors = testgen::generate(&TestConfig {
        count: 64,
        ..TestConfig::default()
    });
    // Builds and drops a guest of every ledger batch size.
    let sweep = |kind| {
        for count in 1..=vectors.len() {
            let guest = build_guest(kind, &vectors[..count], 1);
            drop(guest.unwrap_or_else(|e| panic!("{kind} x{count}: {e}")));
        }
    };
    let kinds = [KernelKind::Method1, KernelKind::Software];
    for kind in kinds {
        let before = live_bytes();
        sweep(kind);
        let kept = live_bytes() - before;
        assert!(
            kept <= KEPT_PER_KIND,
            "the first {kind} sweep kept {kept} bytes"
        );
    }
    let first = live_bytes();
    for kind in kinds {
        sweep(kind);
    }
    let grown = live_bytes() - first;
    assert!(grown <= 0, "a second sweep kept {grown} more bytes");
}
