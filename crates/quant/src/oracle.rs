//! Test oracle — never called from production.
//!
//! [`split`] is the outlier split in its plain form: one input-order
//! pass that copies the G group and lists the outliers by position, the
//! loop the sorted [`crate::OutlierSplit`] replaced. [`cluster`] is the
//! clustering spec in its plain form: sort the G group, then per
//! iteration assign every sorted value with [`nearest_sorted`] (an O(n)
//! pass), count the cluster boundaries off that pass, and take counts,
//! sums, L1 and L2 by the same prefix differences and stopping rules as
//! the kernel's `cluster`, which finds the boundaries by binary search
//! instead. [`pack_bytewise`] and [`unpack_bytewise`] are the
//! byte-at-a-time bit packer the word-at-a-time [`crate::packing`]
//! replaced. `tests/kernel_equivalence.rs` asserts bit-identical output
//! from each pair, up to a G group of the paper's 768 × 768 layer, and
//! that [`crate::QuantizedLayer::encode`] is [`split`], then [`cluster`]
//! (or [`crate::linear::quantize_g`]), then assignment and packing;
//! `compute`'s tests rebuild dense weights from [`unpack_bytewise`].
//! Nothing else calls this module.

use gobo_stats::Gaussian;

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::error::QuantError;
use crate::gobo::{Clustering, L1_PATIENCE};
use crate::init;
use crate::kernel::{nearest_sorted, SortedView, Stop};
use crate::outlier::fit_error;
use crate::packing;

/// A layer split in input order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Split {
    /// The G group, in the layer's order.
    pub g: Vec<f32>,
    /// The outliers' positions, strictly increasing.
    pub positions: Vec<u32>,
    /// The outliers' values, parallel to `positions`.
    pub values: Vec<f32>,
}

/// Splits `weights` by their Gaussian log-density at `threshold` (for
/// `None`, every weight is in the G group). Oracle for
/// [`crate::OutlierSplit`] and the index pass of
/// [`crate::QuantizedLayer::encode_split`], with the same errors.
pub fn split(weights: &[f32], threshold: Option<f64>) -> Result<Split, QuantError> {
    if weights.is_empty() {
        return Err(QuantError::EmptyLayer);
    }
    let gaussian = Gaussian::fit(weights).map_err(fit_error)?;
    let (mean, radius) = (gaussian.mean(), threshold.map(|t| gaussian.cutoff_radius(t)));
    let mut out = Split::default();
    for (i, &w) in weights.iter().enumerate() {
        // A threshold above the density peak has no radius: every weight
        // is an outlier.
        if radius.is_some_and(|r| r.is_none_or(|r| (f64::from(w) - mean).abs() > r)) {
            out.positions.push(i as u32);
            out.values.push(w);
        } else {
            out.g.push(w);
        }
    }
    Ok(out)
}

/// GOBO ([`Stop::MinL1`]) or K-Means ([`Stop::FixedPoint`]) on the
/// sorted G group, written out pass by pass. Oracle for the kernel's
/// `cluster`, which [`crate::gobo::quantize_g`] and
/// [`crate::kmeans::quantize_g`] call.
pub fn cluster(
    values: &[f32],
    clusters: usize,
    max_iterations: usize,
    stop: Stop,
) -> Result<Clustering, QuantError> {
    if max_iterations == 0 {
        return Err(QuantError::InvalidConfig { name: "max_iterations" });
    }
    let mut centroids =
        init::equal_population(&SortedView::new(values), clusters)?.centroids().to_vec();
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f32::total_cmp);
    let (mut sums, mut squares) = (vec![0.0f64], vec![0.0f64]);
    let (mut running, mut running_sq) = (0.0f64, 0.0f64);
    for &v in &sorted {
        let v = f64::from(v);
        running += v;
        running_sq += v * v;
        sums.push(running);
        squares.push(running_sq);
    }
    let sum = |a: usize, b: usize| sums[b] - sums[a];
    let mean = |a: usize, b: usize| (sum(a, b) / (b - a) as f64) as f32;

    let mut trace = ConvergenceTrace::default();
    let mut selected = centroids.clone();
    let mut best_l1 = f64::INFINITY;
    let mut stale = 0usize;
    let mut previous: Vec<usize> = Vec::new();
    for iteration in 0..max_iterations {
        let mut counts = vec![0usize; clusters];
        for &v in &sorted {
            counts[nearest_sorted(&centroids, v)] += 1;
        }
        let mut bounds = vec![0usize];
        let mut end = 0;
        for count in counts {
            end += count;
            bounds.push(end);
        }

        let (mut l1, mut l2) = (0.0f64, 0.0f64);
        for (j, &c) in centroids.iter().enumerate() {
            let (a, b) = (bounds[j], bounds[j + 1]);
            let m = a + sorted[a..b].iter().filter(|&&v| v < c).count();
            let c = f64::from(c);
            l1 += (sum(m, b) - c * (b - m) as f64) + (c * (m - a) as f64 - sum(a, m));
            l2 += (squares[b] - squares[a]) - 2.0 * c * sum(a, b) + (b - a) as f64 * c * c;
        }
        trace.l1.push(l1);
        trace.l2.push(l2);

        if stop == Stop::FixedPoint || l1 < best_l1 {
            best_l1 = l1;
            selected = centroids.clone();
            trace.selected_iteration = iteration;
            stale = 0;
        } else {
            stale += 1;
            if stale >= L1_PATIENCE {
                break;
            }
        }
        if bounds == previous {
            break;
        }
        for (j, c) in centroids.iter_mut().enumerate() {
            if bounds[j + 1] > bounds[j] {
                *c = mean(bounds[j], bounds[j + 1]);
            }
        }
        centroids.sort_by(f32::total_cmp);
        previous = bounds;
    }

    let codebook = Codebook::new(selected)?;
    let assignments = codebook.assign(values);
    Ok(Clustering { codebook, assignments, trace })
}

/// The original byte-at-a-time bit packer. Byte-layout oracle for
/// [`crate::packing::pack`].
pub fn pack_bytewise(values: &[u8], bits: u8) -> Result<Vec<u8>, QuantError> {
    if !(1..=8).contains(&bits) {
        return Err(QuantError::UnsupportedBits { bits });
    }
    let mask: u8 = if bits == 8 { 0xFF } else { (1u8 << bits) - 1 };
    let mut out = Vec::with_capacity(packing::packed_len(values.len(), bits));
    let mut acc: u32 = 0;
    let mut acc_bits: u8 = 0;
    for &v in values {
        if v & !mask != 0 {
            return Err(QuantError::CorruptPayload { what: "value exceeds bit width" });
        }
        acc |= u32::from(v) << acc_bits;
        acc_bits += bits;
        while acc_bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
    Ok(out)
}

/// The original byte-at-a-time unpacker. Oracle for
/// [`crate::packing::unpack`].
pub fn unpack_bytewise(packed: &[u8], bits: u8, count: usize) -> Result<Vec<u8>, QuantError> {
    if !(1..=8).contains(&bits) {
        return Err(QuantError::UnsupportedBits { bits });
    }
    if packed.len() < packing::packed_len(count, bits) {
        return Err(QuantError::CorruptPayload { what: "packed payload too short" });
    }
    let mask: u32 = if bits == 8 { 0xFF } else { (1u32 << bits) - 1 };
    let mut out = Vec::with_capacity(count);
    let mut acc: u32 = 0;
    let mut acc_bits: u8 = 0;
    let mut byte_idx = 0usize;
    for _ in 0..count {
        while acc_bits < bits {
            acc |= u32::from(packed[byte_idx]) << acc_bits;
            byte_idx += 1;
            acc_bits += 8;
        }
        out.push((acc & mask) as u8);
        acc >>= bits;
        acc_bits -= bits;
    }
    Ok(out)
}
