//! Branch-free selection primitives for kernels written outside the
//! [`bga_branchsim::Machine`] seam.
//!
//! The paper's branch-avoiding kernels are hand-written assembly built
//! around `CMOVcc`/predicated instructions. The SV and top-down BFS kernels
//! issue those through [`bga_branchsim::Machine::cond_move`]; the other
//! sequential kernels (Brandes' branch-avoiding forward phase) use these
//! helpers, written so the optimizer lowers them to conditional moves or
//! arithmetic, never a conditional jump.

/// Branch-free select: returns `if cond { a } else { b }` computed with a
/// mask rather than a jump.
#[inline(always)]
pub fn select_u32(cond: bool, a: u32, b: u32) -> u32 {
    // (cond as u32) is 0 or 1; wrapping_neg turns it into 0x0000_0000 or
    // 0xFFFF_FFFF, i.e. a full mask, so the expression is pure data flow.
    let mask = (cond as u32).wrapping_neg();
    (a & mask) | (b & !mask)
}

/// Branch-free select for `u64`.
#[inline(always)]
pub fn select_u64(cond: bool, a: u64, b: u64) -> u64 {
    let mask = (cond as u64).wrapping_neg();
    (a & mask) | (b & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_matches_branchy_equivalent_u32() {
        let cases = [
            (true, 0u32, u32::MAX),
            (false, 0, u32::MAX),
            (true, 42, 7),
            (false, 42, 7),
            (true, u32::MAX, u32::MAX - 1),
        ];
        for (cond, a, b) in cases {
            let expected = if cond { a } else { b };
            assert_eq!(select_u32(cond, a, b), expected);
        }
    }

    #[test]
    fn select_matches_branchy_equivalent_u64() {
        assert_eq!(select_u64(true, u64::MAX, 0), u64::MAX);
        assert_eq!(select_u64(false, u64::MAX, 0), 0);
        assert_eq!(select_u64(true, 9, 1), 9);
        assert_eq!(select_u64(false, 9, 1), 1);
    }

    #[test]
    fn exhaustive_small_range_agreement() {
        for a in 0u32..16 {
            for b in 0u32..16 {
                assert_eq!(select_u32(a < b, a, b), a.min(b));
                assert_eq!(select_u32(a > b, a, b), a.max(b));
                assert_eq!(select_u64(a < b, a.into(), b.into()), a.min(b).into());
            }
        }
    }
}
