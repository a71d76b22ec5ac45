//! Datatypes and reduction operators.
//!
//! The paper's experiments reduce vectors of doubles with the sum
//! operator; a usable library needs the common MPI operator/datatype
//! grid, so the reproduction supports the numeric types and operators
//! below. All operators work directly on byte slices (the form in which
//! payloads live in shared buffers and messages), with explicit
//! little-endian element codecs so results are host-independent.

use simnet::Ctx;
use std::sync::atomic::Ordering;

/// Element type of a reduction payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DType {
    /// 64-bit IEEE float (the paper's test type).
    F64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit unsigned integer.
    U64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            DType::F64 | DType::I64 | DType::U64 => 8,
            DType::F32 | DType::I32 => 4,
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DType::F64 => "f64",
            DType::F32 => "f32",
            DType::I64 => "i64",
            DType::I32 => "i32",
            DType::U64 => "u64",
        }
    }
}

/// Reduction operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Bitwise AND (integer types only, like `MPI_BAND`).
    Band,
    /// Bitwise OR (integer types only, like `MPI_BOR`).
    Bor,
    /// Bitwise XOR (integer types only, like `MPI_BXOR`).
    Bxor,
}

impl ReduceOp {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Prod => "prod",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
            ReduceOp::Band => "band",
            ReduceOp::Bor => "bor",
            ReduceOp::Bxor => "bxor",
        }
    }

    /// Is this operator defined for `dtype`? Bitwise operators need
    /// integer operands, exactly as in MPI.
    pub fn supports(self, dtype: DType) -> bool {
        match self {
            ReduceOp::Sum | ReduceOp::Prod | ReduceOp::Min | ReduceOp::Max => true,
            ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor => {
                matches!(dtype, DType::I64 | DType::I32 | DType::U64)
            }
        }
    }
}

/// One tight `acc[i] = f(acc[i], src[i])` loop over `$t` elements: the
/// operator is fixed by the caller, so the body is branch-free and the
/// compiler can vectorise it.
macro_rules! zip_elems {
    ($t:ty, $acc:expr, $src:expr, |$a:ident, $s:ident| $r:expr) => {{
        const W: usize = std::mem::size_of::<$t>();
        for (ab, sb) in $acc.chunks_exact_mut(W).zip($src.chunks_exact(W)) {
            let $a = <$t>::from_le_bytes((&*ab).try_into().expect("chunk width"));
            let $s = <$t>::from_le_bytes(sb.try_into().expect("chunk width"));
            let r: $t = $r;
            ab.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

macro_rules! combine_float {
    ($t:ty, $op:expr, $acc:expr, $src:expr) => {
        match $op {
            ReduceOp::Sum => zip_elems!($t, $acc, $src, |a, s| a + s),
            ReduceOp::Prod => zip_elems!($t, $acc, $src, |a, s| a * s),
            ReduceOp::Min => zip_elems!($t, $acc, $src, |a, s| if s < a { s } else { a }),
            ReduceOp::Max => zip_elems!($t, $acc, $src, |a, s| if s > a { s } else { a }),
            other => panic!("operator {} undefined for floating point", other.name()),
        }
    };
}

macro_rules! combine_int {
    ($t:ty, $op:expr, $acc:expr, $src:expr) => {
        match $op {
            ReduceOp::Sum => zip_elems!($t, $acc, $src, |a, s| a.wrapping_add(s)),
            ReduceOp::Prod => zip_elems!($t, $acc, $src, |a, s| a.wrapping_mul(s)),
            ReduceOp::Min => zip_elems!($t, $acc, $src, |a, s| a.min(s)),
            ReduceOp::Max => zip_elems!($t, $acc, $src, |a, s| a.max(s)),
            ReduceOp::Band => zip_elems!($t, $acc, $src, |a, s| a & s),
            ReduceOp::Bor => zip_elems!($t, $acc, $src, |a, s| a | s),
            ReduceOp::Bxor => zip_elems!($t, $acc, $src, |a, s| a ^ s),
        }
    };
}

/// Combine `src` into `acc` elementwise: `acc[i] = op(acc[i], src[i])`.
/// The operator is selected once per call, not per element.
///
/// # Panics
/// If the slices differ in length or are not a whole number of elements.
pub fn combine(dtype: DType, op: ReduceOp, acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "operand length mismatch");
    assert_eq!(
        acc.len() % dtype.size(),
        0,
        "payload not a whole number of {} elements",
        dtype.name()
    );
    assert!(
        op.supports(dtype),
        "operator {} undefined for {}",
        op.name(),
        dtype.name()
    );
    match dtype {
        DType::F64 => combine_float!(f64, op, acc, src),
        DType::F32 => combine_float!(f32, op, acc, src),
        DType::I64 => combine_int!(i64, op, acc, src),
        DType::I32 => combine_int!(i32, op, acc, src),
        DType::U64 => combine_int!(u64, op, acc, src),
    }
}

/// [`combine`] plus the machine model's arithmetic cost and metrics —
/// what every collective implementation calls on its combining path.
pub fn combine_costed(ctx: &Ctx, dtype: DType, op: ReduceOp, acc: &mut [u8], src: &[u8]) {
    combine(dtype, op, acc, src);
    charge_reduce(ctx, src.len());
}

/// Combine `src[offset..offset + len]` into `acc[..len]`, two different
/// shared buffers, with cost.
///
/// Combine under the locks, advance after them: the operator reads and
/// writes its operands in place, under the buffers' host-level locks,
/// and the clock moves only once the locks are released. Simulation
/// operations (which may suspend the calling logical process) must
/// never run while a buffer lock is held, or a task writing the same
/// buffer can wedge the whole simulation. Always use this instead of
/// calling [`combine_costed`] inside [`shmem::ShmBuffer::with`].
pub fn combine_buffers_costed(
    ctx: &Ctx,
    dtype: DType,
    op: ReduceOp,
    acc: &shmem::ShmBuffer,
    src: &shmem::ShmBuffer,
    offset: usize,
    len: usize,
) {
    acc.with_mut(|a| src.with(|d| combine(dtype, op, &mut a[..len], &d[offset..offset + len])));
    charge_reduce(ctx, len);
}

/// Charge the operator pass over `len` operand bytes.
fn charge_reduce(ctx: &Ctx, len: usize) {
    ctx.advance(ctx.config().reduce_cost(len));
    ctx.metrics()
        .reduce_bytes
        .fetch_add(len as u64, Ordering::Relaxed);
}

/// Encode a typed slice into little-endian bytes.
pub fn to_bytes_f64(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `f64`s.
pub fn from_bytes_f64(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Encode a typed slice into little-endian bytes.
pub fn to_bytes_u64(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `u64`s.
pub fn from_bytes_u64(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Sequential reference: reduce many per-rank contributions with `op`.
/// Contributions are combined in rank order (the order every tree
/// algorithm must be equivalent to for commutative+associative ops).
pub fn reference_reduce(dtype: DType, op: ReduceOp, contributions: &[Vec<u8>]) -> Vec<u8> {
    let mut acc = contributions[0].clone();
    for c in &contributions[1..] {
        combine(dtype, op, &mut acc, c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_f64() {
        let mut a = to_bytes_f64(&[1.0, 2.0, 3.0]);
        let b = to_bytes_f64(&[0.5, 0.25, -3.0]);
        combine(DType::F64, ReduceOp::Sum, &mut a, &b);
        assert_eq!(from_bytes_f64(&a), vec![1.5, 2.25, 0.0]);
    }

    #[test]
    fn min_max_i32() {
        let enc = |v: &[i32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let mut a = enc(&[1, 9, -5]);
        combine(DType::I32, ReduceOp::Min, &mut a, &enc(&[2, 3, -1]));
        assert_eq!(a, enc(&[1, 3, -5]));
        let mut b = enc(&[1, 9, -5]);
        combine(DType::I32, ReduceOp::Max, &mut b, &enc(&[2, 3, -1]));
        assert_eq!(b, enc(&[2, 9, -1]));
    }

    #[test]
    fn prod_u64() {
        let mut a = to_bytes_u64(&[3, 7]);
        combine(DType::U64, ReduceOp::Prod, &mut a, &to_bytes_u64(&[5, 2]));
        assert_eq!(from_bytes_u64(&a), vec![15, 14]);
    }

    #[test]
    fn f32_width() {
        let enc = |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let mut a = enc(&[1.0, 2.0]);
        combine(DType::F32, ReduceOp::Sum, &mut a, &enc(&[1.0, -2.0]));
        assert_eq!(a, enc(&[2.0, 0.0]));
    }

    #[test]
    fn reference_reduce_accumulates_in_order() {
        let contribs: Vec<Vec<u8>> = (1..=4u64).map(|i| to_bytes_u64(&[i, 10 * i])).collect();
        let r = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
        assert_eq!(from_bytes_u64(&r), vec![10, 100]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = vec![0u8; 8];
        combine(DType::F64, ReduceOp::Sum, &mut a, &[0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_payload_panics() {
        let mut a = vec![0u8; 12];
        combine(DType::F64, ReduceOp::Sum, &mut a, &[0u8; 12]);
    }

    #[test]
    fn roundtrip_codecs() {
        let v = vec![1.25f64, -0.5, 1e300];
        assert_eq!(from_bytes_f64(&to_bytes_f64(&v)), v);
        let u = vec![0u64, u64::MAX, 42];
        assert_eq!(from_bytes_u64(&to_bytes_u64(&u)), u);
    }

    #[test]
    fn bitwise_ops_on_integers() {
        let mut a = to_bytes_u64(&[0b1100, 0b1010]);
        combine(
            DType::U64,
            ReduceOp::Band,
            &mut a,
            &to_bytes_u64(&[0b1010, 0b0110]),
        );
        assert_eq!(from_bytes_u64(&a), vec![0b1000, 0b0010]);
        let mut b = to_bytes_u64(&[0b1100]);
        combine(DType::U64, ReduceOp::Bor, &mut b, &to_bytes_u64(&[0b0011]));
        assert_eq!(from_bytes_u64(&b), vec![0b1111]);
        let mut c = to_bytes_u64(&[0b1100]);
        combine(DType::U64, ReduceOp::Bxor, &mut c, &to_bytes_u64(&[0b1010]));
        assert_eq!(from_bytes_u64(&c), vec![0b0110]);
    }

    #[test]
    #[should_panic(expected = "undefined for f64")]
    fn bitwise_on_float_rejected() {
        let mut a = to_bytes_f64(&[1.0]);
        combine(DType::F64, ReduceOp::Band, &mut a, &to_bytes_f64(&[2.0]));
    }

    #[test]
    fn integer_sum_wraps_instead_of_panicking() {
        let mut a = to_bytes_u64(&[u64::MAX]);
        combine(DType::U64, ReduceOp::Sum, &mut a, &to_bytes_u64(&[2]));
        assert_eq!(from_bytes_u64(&a), vec![1]);
    }

    #[test]
    fn supports_matrix() {
        assert!(ReduceOp::Sum.supports(DType::F64));
        assert!(ReduceOp::Band.supports(DType::U64));
        assert!(!ReduceOp::Band.supports(DType::F32));
        assert!(!ReduceOp::Bxor.supports(DType::F64));
    }

    /// The obvious implementation: decode one element pair, pick the
    /// operator, encode the result.
    fn naive_combine(dtype: DType, op: ReduceOp, acc: &[u8], src: &[u8]) -> Vec<u8> {
        macro_rules! per_elem {
            ($t:ty, $f:expr) => {{
                const W: usize = std::mem::size_of::<$t>();
                let f: fn($t, $t) -> $t = $f;
                let dec = |b: &[u8]| <$t>::from_le_bytes(b.try_into().unwrap());
                let pairs = acc.chunks(W).zip(src.chunks(W));
                pairs
                    .flat_map(|(a, s)| f(dec(a), dec(s)).to_le_bytes())
                    .collect()
            }};
        }
        macro_rules! float {
            ($t:ty) => {
                match op {
                    ReduceOp::Sum => per_elem!($t, |a, s| a + s),
                    ReduceOp::Prod => per_elem!($t, |a, s| a * s),
                    ReduceOp::Min => per_elem!($t, |a, s| if s < a { s } else { a }),
                    ReduceOp::Max => per_elem!($t, |a, s| if s > a { s } else { a }),
                    _ => unreachable!("unsupported pairs are filtered out"),
                }
            };
        }
        macro_rules! int {
            ($t:ty) => {
                match op {
                    ReduceOp::Sum => per_elem!($t, |a, s| a.wrapping_add(s)),
                    ReduceOp::Prod => per_elem!($t, |a, s| a.wrapping_mul(s)),
                    ReduceOp::Min => per_elem!($t, |a, s| if s < a { s } else { a }),
                    ReduceOp::Max => per_elem!($t, |a, s| if s > a { s } else { a }),
                    ReduceOp::Band => per_elem!($t, |a, s| a & s),
                    ReduceOp::Bor => per_elem!($t, |a, s| a | s),
                    ReduceOp::Bxor => per_elem!($t, |a, s| a ^ s),
                }
            };
        }
        match dtype {
            DType::F64 => float!(f64),
            DType::F32 => float!(f32),
            DType::I64 => int!(i64),
            DType::I32 => int!(i32),
            DType::U64 => int!(u64),
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN: which
    /// operand's payload survives an addition is not pinned down.
    fn same_elems(dtype: DType, got: &[u8], want: &[u8]) -> bool {
        let nan = |b: &[u8]| match dtype {
            DType::F64 => f64::from_le_bytes(b.try_into().unwrap()).is_nan(),
            DType::F32 => f32::from_le_bytes(b.try_into().unwrap()).is_nan(),
            _ => false,
        };
        let w = dtype.size();
        got.len() == want.len()
            && got
                .chunks(w)
                .zip(want.chunks(w))
                .all(|(g, e)| g == e || (nan(g) && nan(e)))
    }

    const MAX_ELEMS: usize = 67;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Every per-`(dtype, op)` loop agrees with the naive reference
        /// on arbitrary bit patterns, through vector bodies and scalar
        /// tails alike (0 to 67 elements).
        #[test]
        fn combine_matches_naive_reference(
            elems in 0usize..=MAX_ELEMS,
            raw in prop::collection::vec(any::<u8>(), 2 * MAX_ELEMS * 8),
        ) {
            const DTYPES: [DType; 5] = [DType::F64, DType::F32, DType::I64, DType::I32, DType::U64];
            const OPS: [ReduceOp; 7] = [
                ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max,
                ReduceOp::Band, ReduceOp::Bor, ReduceOp::Bxor,
            ];
            let mut checked = 0;
            for dtype in DTYPES {
                let bytes = elems * dtype.size();
                let (acc0, src) = (&raw[..bytes], &raw[MAX_ELEMS * 8..][..bytes]);
                for op in OPS.into_iter().filter(|op| op.supports(dtype)) {
                    let mut acc = acc0.to_vec();
                    combine(dtype, op, &mut acc, src);
                    let want = naive_combine(dtype, op, acc0, src);
                    prop_assert!(
                        same_elems(dtype, &acc, &want),
                        "{} {} over {} elements: {:?} != {:?}",
                        dtype.name(), op.name(), elems, acc, want
                    );
                    checked += 1;
                }
            }
            prop_assert_eq!(checked, 2 * 4 + 3 * 7);
        }
    }

    #[test]
    fn names_and_sizes() {
        assert_eq!(DType::F64.size(), 8);
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::I32.size(), 4);
        assert_eq!(ReduceOp::Sum.name(), "sum");
        assert_eq!(DType::F64.name(), "f64");
    }
}
