//! Entropy analysis of index streams: would entropy coding beat
//! GOBO's fixed-width packing?
//!
//! Deep Compression follows its dictionary stage with Huffman coding.
//! GOBO does not — and this module shows why that is principled rather
//! than an omission: equal-*population* initialization keeps cluster
//! occupancies nearly uniform, so the index stream's Shannon entropy
//! sits within a few percent of `bits`, and a Huffman code cannot beat
//! fixed-width packing by more than that. Linearly-quantized indices,
//! by contrast, are heavily skewed (most weights fall in the central
//! levels) and leave real entropy-coding gains on the table.

use crate::error::QuantError;

/// Occupancy histogram of an index stream over `k` symbols.
///
/// # Errors
///
/// Returns [`QuantError::EmptyLayer`] for an empty stream and
/// [`QuantError::CorruptPayload`] when an index is `>= k`.
pub fn occupancy(indices: &[u8], k: usize) -> Result<Vec<u64>, QuantError> {
    if indices.is_empty() {
        return Err(QuantError::EmptyLayer);
    }
    let mut counts = vec![0u64; k];
    for &i in indices {
        let slot = counts
            .get_mut(i as usize)
            .ok_or(QuantError::CorruptPayload { what: "index out of range" })?;
        *slot += 1;
    }
    Ok(counts)
}

/// Shannon entropy of an index stream, in bits per symbol.
///
/// # Errors
///
/// Same conditions as [`occupancy`].
pub fn shannon_entropy(indices: &[u8], k: usize) -> Result<f64, QuantError> {
    let counts = occupancy(indices, k)?;
    let n = indices.len() as f64;
    Ok(counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum())
}

/// Average code length, in bits per symbol, of an optimal Huffman code
/// for the stream.
///
/// # Errors
///
/// Same conditions as [`occupancy`].
pub fn huffman_bits_per_symbol(indices: &[u8], k: usize) -> Result<f64, QuantError> {
    let counts = occupancy(indices, k)?;
    let lengths = huffman_code_lengths(&counts);
    let n = indices.len() as f64;
    Ok(counts.iter().zip(&lengths).map(|(&c, &l)| c as f64 * l as f64).sum::<f64>() / n)
}

/// Optimal prefix-code lengths per symbol (zero-count symbols get
/// length 0 and cost nothing).
fn huffman_code_lengths(counts: &[u64]) -> Vec<u32> {
    #[derive(Debug)]
    enum Node {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }

    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    let mut nodes: Vec<Option<Node>> = Vec::new();
    for (symbol, &c) in counts.iter().enumerate() {
        if c > 0 {
            heap.push(std::cmp::Reverse((c, nodes.len())));
            nodes.push(Some(Node::Leaf(symbol)));
        }
    }
    let mut lengths = vec![0u32; counts.len()];
    let live = heap.len();
    if live == 0 {
        return lengths;
    }
    if live == 1 {
        // A single symbol still needs one bit on the wire.
        let std::cmp::Reverse((_, idx)) = heap.pop().expect("one entry");
        if let Some(Node::Leaf(symbol)) = &nodes[idx] {
            lengths[*symbol] = 1;
        }
        return lengths;
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((ca, ia)) = heap.pop().expect("len > 1");
        let std::cmp::Reverse((cb, ib)) = heap.pop().expect("len > 1");
        let a = nodes[ia].take().expect("live node");
        let b = nodes[ib].take().expect("live node");
        heap.push(std::cmp::Reverse((ca + cb, nodes.len())));
        nodes.push(Some(Node::Internal(Box::new(a), Box::new(b))));
    }
    let std::cmp::Reverse((_, root_idx)) = heap.pop().expect("root");
    let root = nodes[root_idx].take().expect("root node");
    // Walk the tree assigning depths.
    let mut stack = vec![(root, 0u32)];
    while let Some((node, depth)) = stack.pop() {
        match node {
            Node::Leaf(symbol) => lengths[symbol] = depth,
            Node::Internal(a, b) => {
                stack.push((*a, depth + 1));
                stack.push((*b, depth + 1));
            }
        }
    }
    lengths
}

/// Summary of the fixed-width vs entropy-coding comparison for one
/// index stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyReport {
    /// Fixed width used by the packer, in bits.
    pub fixed_bits: f64,
    /// Shannon entropy, bits/symbol (lower bound for any code).
    pub entropy_bits: f64,
    /// Optimal Huffman average, bits/symbol.
    pub huffman_bits: f64,
}

impl EntropyReport {
    /// Fraction of the fixed-width stream Huffman coding could save
    /// (0 = nothing to gain).
    pub fn huffman_saving(&self) -> f64 {
        1.0 - self.huffman_bits / self.fixed_bits
    }
}

/// Computes the comparison for a `bits`-wide index stream.
///
/// # Errors
///
/// Same conditions as [`occupancy`].
pub fn entropy_report(indices: &[u8], bits: u8) -> Result<EntropyReport, QuantError> {
    let k = 1usize << bits;
    Ok(EntropyReport {
        fixed_bits: f64::from(bits),
        entropy_bits: shannon_entropy(indices, k)?,
        huffman_bits: huffman_bits_per_symbol(indices, k)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gobo, linear, OutlierSplit};

    fn gaussianish(n: usize) -> Vec<f32> {
        let mut state = 0xdeadbeefdeadbeefu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| {
                let u1 = next().clamp(1e-7, 1.0);
                let u2 = next();
                0.04 * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn uniform_stream_has_full_entropy() {
        let indices: Vec<u8> = (0..8000).map(|i| (i % 8) as u8).collect();
        let h = shannon_entropy(&indices, 8).unwrap();
        assert!((h - 3.0).abs() < 1e-9);
        let r = entropy_report(&indices, 3).unwrap();
        assert!(r.huffman_saving().abs() < 1e-9);
    }

    #[test]
    fn skewed_stream_compresses() {
        let mut indices = vec![0u8; 9000];
        indices.extend(vec![1u8; 500]);
        indices.extend(vec![2u8; 400]);
        indices.extend(vec![3u8; 100]);
        let r = entropy_report(&indices, 2).unwrap();
        assert!(r.entropy_bits < 1.0, "entropy {}", r.entropy_bits);
        assert!(r.huffman_bits >= r.entropy_bits - 1e-9, "Huffman ≥ entropy");
        assert!(r.huffman_saving() > 0.3, "saving {}", r.huffman_saving());
    }

    #[test]
    fn huffman_never_beats_entropy_nor_fixed_by_much() {
        let indices: Vec<u8> = (0..5000).map(|i| ((i * i) % 16) as u8).collect();
        let r = entropy_report(&indices, 4).unwrap();
        assert!(r.huffman_bits + 1e-9 >= r.entropy_bits);
        assert!(r.huffman_bits <= r.entropy_bits + 1.0, "within 1 bit of entropy");
    }

    #[test]
    fn single_symbol_stream_costs_one_bit() {
        let indices = vec![5u8; 100];
        let r = entropy_report(&indices, 3).unwrap();
        assert_eq!(r.entropy_bits, 0.0);
        assert!((r.huffman_bits - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equal_population_gobo_indices_are_near_incompressible() {
        // The design insight: GOBO's index stream is close to uniform,
        // so fixed-width packing is already near-optimal.
        let w = gaussianish(50_000);
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let c = gobo::quantize_g(split.view().values(), 8, 100).unwrap();
        let r = entropy_report(&c.assignments, 3).unwrap();
        assert!(r.huffman_saving() < 0.05, "saving {}", r.huffman_saving());
    }

    #[test]
    fn linear_indices_leave_entropy_gains() {
        // Linear levels over a Gaussian: central levels dominate, so a
        // Huffman code saves real bits — GOBO's choice of occupancy-
        // balancing init removes that slack.
        let w = gaussianish(50_000);
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let c = linear::quantize_g(split.view().values(), 8).unwrap();
        let r = entropy_report(&c.assignments, 3).unwrap();
        assert!(r.huffman_saving() > 0.1, "saving {}", r.huffman_saving());
    }

    #[test]
    fn validation_errors() {
        assert!(shannon_entropy(&[], 8).is_err());
        assert!(shannon_entropy(&[9], 8).is_err());
        assert!(occupancy(&[0, 1, 2], 2).is_err());
    }
}
