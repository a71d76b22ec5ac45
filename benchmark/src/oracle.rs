//! Seeded inputs and sequential references.
//!
//! Every verified call (each world's warm-up call and its final check
//! call) fills its buffers from `(seed, salt, rank, index)` and is then
//! compared with what a sequential program would have produced. The
//! library never sees the seed — only the bytes generated from it.
//!
//! Reduction payloads are doubles holding small whole numbers, so a sum
//! over any number of ranks is exact in every association order and
//! the reference is bit-exact for any tree shape.

use crate::spec::Op;

/// Generator of one verified call's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    k: u64,
}

/// SplitMix64 finaliser: spreads `(seed, salt)` over the word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    /// Inputs of the call identified by `salt` under `seed`.
    pub fn new(seed: u64, salt: u64) -> Inputs {
        Inputs {
            k: mix(seed ^ mix(salt)),
        }
    }

    /// Element `i` of rank `rank`'s reduction contribution.
    pub fn elem(&self, rank: usize, i: usize) -> f64 {
        ((self.k % 1021 + rank as u64 * 131 + i as u64 * 7) % 1021) as f64
    }

    /// 8-byte word `w` of rank `rank`'s byte payload.
    fn word(&self, rank: usize, w: usize) -> u64 {
        mix(self.k ^ ((rank as u64) << 40) ^ w as u64)
    }

    /// Fill `out` with doubles `elem(rank, first..)`.
    pub fn fill_elems(&self, rank: usize, first: usize, out: &mut [u8]) {
        for (j, c) in out.chunks_exact_mut(8).enumerate() {
            c.copy_from_slice(&self.elem(rank, first + j).to_le_bytes());
        }
    }

    /// Fill `out` with payload bytes `[at, at + out.len())` of `rank`;
    /// `at` must be a multiple of 8 (every segment offset used is).
    pub fn fill_bytes(&self, rank: usize, at: usize, out: &mut [u8]) {
        debug_assert_eq!(at % 8, 0);
        for (j, c) in out.chunks_mut(8).enumerate() {
            let w = self.word(rank, at / 8 + j).to_le_bytes();
            c.copy_from_slice(&w[..c.len()]);
        }
    }

    /// Does `got` equal payload bytes `[at, at + got.len())` of `rank`?
    pub fn bytes_match(&self, rank: usize, at: usize, got: &[u8]) -> bool {
        debug_assert_eq!(at % 8, 0);
        got.chunks(8)
            .enumerate()
            .all(|(j, c)| self.word(rank, at / 8 + j).to_le_bytes()[..c.len()] == *c)
    }

    /// Sequential reference of a sum-reduction over `ranks`: element
    /// `i` is the sum of every member's `elem(rank, i)`, accumulated in
    /// member order. Little-endian doubles, `n` elements.
    pub fn reference_sum(&self, ranks: &[usize], n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * 8);
        for i in 0..n {
            let mut acc = 0.0f64;
            for &r in ranks {
                acc += self.elem(r, i);
            }
            out.extend_from_slice(&acc.to_le_bytes());
        }
        out
    }
}

/// The seeded alltoallv count matrix (`n x n`, row-major, bytes rank
/// `i` sends rank `j`): a Latin square over one fixed ladder of counts
/// from empty to full, with the ranks relabelled by a permutation drawn
/// from the seed. Every row and every column holds each ladder value
/// once, so the seed changes *which* pairs are heavy while every
/// rank's send and receive volume — and the workload's size — stay the
/// same.
pub fn alltoallv_counts(seed: u64, n: usize, seg: usize) -> Vec<usize> {
    // Fisher-Yates with SplitMix64 draws.
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ mix(0xa11 + i as u64)) % (i as u64 + 1)) as usize;
        label.swap(i, j);
    }
    let mut counts = vec![0; n * n];
    for i in 0..n {
        for j in 0..n {
            let step = (label[i] + label[j]) % n;
            // Ladder 0, seg/(n-1), ..., seg: empty, ragged and full slots.
            counts[i * n + j] = if n > 1 { seg * step / (n - 1) } else { seg };
        }
    }
    counts
}

/// One verified call on one communicator: its inputs, and what every
/// member must hold afterwards.
pub struct Expect {
    pub op: Op,
    pub inputs: Inputs,
    /// Payload parameter of the op (bytes; per-segment for segment ops).
    pub len: usize,
    /// Communicator members in communicator-rank order (world ranks).
    pub members: Vec<usize>,
    /// Communicator rank of the root (rooted ops).
    pub root: usize,
    /// alltoallv count matrix (empty otherwise).
    pub counts: Vec<usize>,
    /// `reference_sum` over `members` for the reducing ops.
    sum: Vec<u8>,
}

impl Expect {
    /// Build the call's reference; the reducing ops compute their
    /// sequential sum here, once per world.
    pub fn new(
        op: Op,
        inputs: Inputs,
        len: usize,
        members: Vec<usize>,
        root: usize,
        counts: Vec<usize>,
    ) -> Expect {
        let elems = match op {
            Op::Reduce | Op::Allreduce => len / 8,
            Op::ReduceScatter => members.len() * len / 8,
            _ => 0,
        };
        let sum = inputs.reference_sum(&members, elems);
        Expect {
            op,
            inputs,
            len,
            members,
            root,
            counts,
            sum,
        }
    }

    /// Fill communicator rank `me`'s buffer with the call's inputs.
    pub fn fill(&self, me: usize, buf: &mut [u8]) {
        let n = self.members.len();
        let rank = self.members[me];
        let len = self.len;
        match self.op {
            Op::Barrier | Op::Solver => {}
            Op::Bcast => {
                // Non-roots start from their own bytes, so a broadcast
                // that moves nothing is caught.
                self.inputs.fill_bytes(rank, 0, &mut buf[..len]);
            }
            Op::Reduce | Op::Allreduce => self.inputs.fill_elems(rank, 0, &mut buf[..len]),
            Op::ReduceScatter => self.inputs.fill_elems(rank, 0, &mut buf[..n * len]),
            Op::Gather | Op::Allgather => {
                buf[..n * len].fill(0);
                self.inputs
                    .fill_bytes(rank, me * len, &mut buf[me * len..(me + 1) * len]);
            }
            Op::Scatter => {
                if me == self.root {
                    self.inputs.fill_bytes(rank, 0, &mut buf[..n * len]);
                } else {
                    buf[..n * len].fill(0);
                }
            }
            Op::Alltoall | Op::Alltoallv => {
                self.inputs.fill_bytes(rank, 0, &mut buf[..n * len]);
                buf[n * len..2 * n * len].fill(0);
            }
        }
    }

    /// Does communicator rank `me`'s buffer hold the sequential
    /// reference's result in every region the op defines?
    pub fn holds(&self, me: usize, buf: &[u8]) -> bool {
        let n = self.members.len();
        let len = self.len;
        let root_rank = self.members[self.root];
        match self.op {
            Op::Barrier | Op::Solver => true,
            Op::Bcast => self.inputs.bytes_match(root_rank, 0, &buf[..len]),
            Op::Reduce => me != self.root || buf[..len] == self.sum[..len],
            Op::Allreduce => buf[..len] == self.sum[..len],
            Op::ReduceScatter => {
                buf[me * len..(me + 1) * len] == self.sum[me * len..(me + 1) * len]
            }
            Op::Gather => {
                me != self.root
                    || (0..n).all(|i| {
                        self.inputs.bytes_match(
                            self.members[i],
                            i * len,
                            &buf[i * len..(i + 1) * len],
                        )
                    })
            }
            Op::Allgather => (0..n).all(|i| {
                self.inputs
                    .bytes_match(self.members[i], i * len, &buf[i * len..(i + 1) * len])
            }),
            Op::Scatter => {
                self.inputs
                    .bytes_match(root_rank, me * len, &buf[me * len..(me + 1) * len])
            }
            Op::Alltoall => (0..n).all(|i| {
                let at = n * len + i * len;
                self.inputs
                    .bytes_match(self.members[i], me * len, &buf[at..at + len])
            }),
            Op::Alltoallv => (0..n).all(|i| {
                let at = n * len + i * len;
                let live = self.counts[i * n + me];
                self.inputs
                    .bytes_match(self.members[i], me * len, &buf[at..at + live])
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::new(7, 1);
        let b = Inputs::new(7, 1);
        let c = Inputs::new(8, 1);
        let (mut x, mut y, mut z) = ([0u8; 64], [0u8; 64], [0u8; 64]);
        a.fill_bytes(3, 16, &mut x);
        b.fill_bytes(3, 16, &mut y);
        c.fill_bytes(3, 16, &mut z);
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(a.bytes_match(3, 16, &x[..61]));
        assert!(!a.bytes_match(4, 16, &x));
    }

    #[test]
    fn reference_sum_is_order_independent() {
        let inp = Inputs::new(1, 2);
        let fwd = inp.reference_sum(&[0, 1, 2, 3, 4], 16);
        let rev = inp.reference_sum(&[4, 3, 2, 1, 0], 16);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn alltoallv_rows_and_columns_hold_the_whole_ladder() {
        let (n, seg) = (16, 64 << 10);
        let a = alltoallv_counts(1, n, seg);
        let b = alltoallv_counts(2, n, seg);
        assert_ne!(a, b);
        let total = |c: &[usize]| c.iter().sum::<usize>();
        assert_eq!(total(&a), total(&b));
        let ladder: Vec<usize> = (0..n).map(|k| seg * k / (n - 1)).collect();
        for i in 0..n {
            let mut row: Vec<usize> = a[i * n..(i + 1) * n].to_vec();
            let mut col: Vec<usize> = (0..n).map(|j| a[j * n + i]).collect();
            row.sort_unstable();
            col.sort_unstable();
            assert_eq!((&row, &col), (&ladder, &ladder));
        }
    }
}
