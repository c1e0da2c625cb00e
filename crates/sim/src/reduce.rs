//! Hierarchical fan-in reduction.
//!
//! Petascale checkpoint systems aggregate per-rank reports through
//! fan-in trees rather than flat all-to-root collection; [`tree_reduce`]
//! is that shape as a pure in-memory combinator. Items are merged in
//! contiguous groups of `arity` (left fold within a group), then the
//! group results are merged the same way, level by level, until one
//! remains.
//!
//! **Determinism contract:** for an associative `merge`, the result is
//! byte-identical to a flat left fold over the items, at any arity.
//! Aggregates flowing through this function must therefore stick to
//! associative integer arithmetic (sums, saturating/wrapping adds,
//! mins, maxes, ORs); floating-point accumulation is *not* associative
//! and belongs at render time, after the reduction. The property suite
//! (`tests/sched_props.rs`) pins tree-vs-flat equality across arities.

/// How the per-participant `u64` values of a collective round are
/// folded (the vote word of an iteration boundary, the slowest write
/// of a forked checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Maximum of the contributed values.
    Max,
    /// Minimum of the contributed values.
    Min,
    /// Wrapping sum of the contributed values.
    Sum,
    /// Bitwise OR (useful for vote flags).
    Or,
    /// Bitwise AND (useful for unanimous votes).
    And,
}

impl Combine {
    /// The identity element of this combiner (the accumulator seed).
    pub fn identity(&self) -> u64 {
        match self {
            Combine::Max => 0,
            Combine::Min => u64::MAX,
            Combine::Sum => 0,
            Combine::Or => 0,
            Combine::And => u64::MAX,
        }
    }

    /// Combine two values. All variants are commutative and
    /// associative, so fold order never affects the result.
    pub fn apply(&self, a: u64, b: u64) -> u64 {
        match self {
            Combine::Max => a.max(b),
            Combine::Min => a.min(b),
            Combine::Sum => a.wrapping_add(b),
            Combine::Or => a | b,
            Combine::And => a & b,
        }
    }
}

/// Reduce `items` through a fan-in tree of the given `arity`
/// (minimum 2). Returns `None` for an empty input.
///
/// ```
/// use ickpt_sim::reduce::tree_reduce;
///
/// let sum = tree_reduce((1u64..=100).collect(), 8, |a, b| *a += b);
/// assert_eq!(sum, Some(5050));
/// ```
pub fn tree_reduce<T>(
    mut items: Vec<T>,
    arity: usize,
    mut merge: impl FnMut(&mut T, T),
) -> Option<T> {
    let arity = arity.max(2);
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(arity));
        let mut it = items.into_iter();
        while let Some(mut acc) = it.next() {
            for _ in 1..arity {
                match it.next() {
                    Some(x) => merge(&mut acc, x),
                    None => break,
                }
            }
            next.push(acc);
        }
        items = next;
    }
    items.pop()
}

/// Fan-in group assignment: the group index each of `n` items belongs
/// to at the given `arity` (contiguous groups, as [`tree_reduce`]'s
/// first level forms them). Exposed so topology-aware consumers (the
/// drain queue's tree mode) charge traffic along the same tree.
pub fn fanin_group(index: usize, arity: usize) -> usize {
    index / arity.max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat reference: a plain left fold.
    fn flat_reduce<T>(items: Vec<T>, mut merge: impl FnMut(&mut T, T)) -> Option<T> {
        let mut it = items.into_iter();
        let mut acc = it.next()?;
        for x in it {
            merge(&mut acc, x);
        }
        Some(acc)
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(tree_reduce(Vec::<u64>::new(), 4, |a, b| *a += b), None);
        assert_eq!(tree_reduce(vec![7u64], 4, |a, b| *a += b), Some(7));
    }

    #[test]
    fn matches_flat_for_associative_merges() {
        let items: Vec<u64> = (0u64..1000).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let flat = flat_reduce(items.clone(), |a, b| *a = a.wrapping_add(b));
        for arity in [2, 3, 7, 32, 1000, 5000] {
            let tree = tree_reduce(items.clone(), arity, |a, b| *a = a.wrapping_add(b));
            assert_eq!(tree, flat, "arity {arity}");
        }
        let flat_max = flat_reduce(items.clone(), |a, b| *a = (*a).max(b));
        for arity in [2, 32] {
            assert_eq!(tree_reduce(items.clone(), arity, |a, b| *a = (*a).max(b)), flat_max);
        }
    }

    #[test]
    fn arity_below_two_is_clamped() {
        let sum = tree_reduce(vec![1u64, 2, 3], 0, |a, b| *a += b);
        assert_eq!(sum, Some(6));
    }

    #[test]
    fn combine_folds_from_its_identity() {
        let fold = |c: Combine, vs: &[u64]| vs.iter().fold(c.identity(), |a, &v| c.apply(a, v));
        assert_eq!(fold(Combine::Max, &[5, 9, 7]), 9);
        assert_eq!(fold(Combine::Min, &[5, 9, 7]), 5);
        assert_eq!(fold(Combine::Sum, &[1, 2, 3]), 6);
        assert_eq!(fold(Combine::Or, &[0b01, 0b10]), 0b11);
        assert_eq!(fold(Combine::And, &[0b11, 0b10]), 0b10);
    }

    #[test]
    fn fanin_groups_are_contiguous() {
        assert_eq!(fanin_group(0, 32), 0);
        assert_eq!(fanin_group(31, 32), 0);
        assert_eq!(fanin_group(32, 32), 1);
        assert_eq!(fanin_group(95, 32), 2);
    }
}
