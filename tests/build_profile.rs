//! The test build trades compile time for speed (`[profile.dev]
//! opt-level = 1` in the root `Cargo.toml`) but must keep every runtime
//! check: a profile edit that drops debug assertions or overflow checks
//! from the tests fails here.

#[test]
fn test_build_keeps_debug_assertions_and_overflow_checks() {
    let debug_assertions = std::hint::black_box(cfg!(debug_assertions));
    assert!(debug_assertions, "tests must run with debug assertions");
    let max = std::hint::black_box(u64::MAX);
    let sum = std::panic::catch_unwind(|| max + std::hint::black_box(1));
    assert!(sum.is_err(), "an overflowing u64 add must panic in the test build");
}
