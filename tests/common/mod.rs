//! Helpers shared by the root integration tests.

/// Asserts that a run's final parameters hash to a committed digest:
/// FNV-1a-64 over the parameters' bit patterns — the scheme of
/// `crates/train/tests/golden_bits.rs`, applied to a whole live run.
/// Fails with the observed digest, so a deliberate change of numerics
/// re-blesses with a one-line diff the change has to explain.
pub fn assert_digest(what: &str, params: &[f32], committed: u64) {
    let mut observed = 0xCBF2_9CE4_8422_2325u64;
    for x in params {
        for b in x.to_bits().to_le_bytes() {
            observed ^= u64::from(b);
            observed = observed.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    assert_eq!(
        observed, committed,
        "{what}: final-parameter digest is {observed:#018x}, committed {committed:#018x} — \
         the run left its committed trajectory; if that is deliberate, paste the observed \
         digest and explain it"
    );
}
