//! Test oracle — never called from production.
//!
//! The **pre-fusion scalar implementations** of the clustering loops
//! ([`scalar_gobo_quantize_g`], [`scalar_kmeans_quantize_g`],
//! [`scalar_linear_quantize_g`]) and the bytewise bit packer
//! ([`pack_bytewise`], [`unpack_bytewise`]), exactly as they were before
//! [`crate::kernel`] and [`crate::packing`] replaced them. The tests in
//! `tests/kernel_equivalence.rs` assert that the fused kernels, the
//! word-at-a-time packer and the group-at-a-time unpacker produce
//! bit-identical output, up to a G group of the paper's 768 × 768 layer;
//! `compute`'s tests rebuild dense weights from [`unpack_bytewise`].
//! Nothing else calls this module.

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::error::QuantError;
use crate::gobo::{Clustering, L1_PATIENCE};
use crate::init;
use crate::packing;

/// The GOBO centroid-selection loop in its original separate-pass
/// formulation: `assign` + `l1_norm` + `l2_norm` + `update_means` each
/// traverse the values, and improving iterates are snapshotted by
/// cloning. Semantically and bit-exactly equivalent to
/// [`crate::gobo::quantize_g`]; kept only as a test oracle.
pub fn scalar_gobo_quantize_g(
    values: &[f32],
    clusters: usize,
    max_iterations: usize,
) -> Result<Clustering, QuantError> {
    if max_iterations == 0 {
        return Err(QuantError::InvalidConfig { name: "max_iterations" });
    }
    let mut codebook = init::equal_population(values, clusters)?;
    let mut trace = ConvergenceTrace::default();

    let mut best: Option<(f64, Codebook, Vec<u8>)> = None;
    let mut stale = 0usize;
    let mut prev_assignments: Vec<u8> = Vec::new();
    for iteration in 0..max_iterations {
        let assignments = codebook.assign(values);
        let l1 = codebook.l1_norm(values, &assignments);
        let l2 = codebook.l2_norm(values, &assignments);
        trace.l1.push(l1);
        trace.l2.push(l2);

        let improved = best.as_ref().is_none_or(|(b, _, _)| l1 < *b);
        if improved {
            best = Some((l1, codebook.clone(), assignments.clone()));
            trace.selected_iteration = iteration;
            stale = 0;
        } else {
            stale += 1;
            if stale >= L1_PATIENCE {
                break;
            }
        }
        if assignments == prev_assignments {
            break;
        }
        codebook = codebook.update_means(values, &assignments);
        prev_assignments = assignments;
    }

    let (_, codebook, assignments) = best.expect("at least one iteration ran");
    Ok(Clustering { codebook, assignments, trace })
}

/// The K-Means loop in its original separate-pass formulation. Oracle
/// for [`crate::kmeans::quantize_g`].
pub fn scalar_kmeans_quantize_g(
    values: &[f32],
    clusters: usize,
    max_iterations: usize,
) -> Result<Clustering, QuantError> {
    if max_iterations == 0 {
        return Err(QuantError::InvalidConfig { name: "max_iterations" });
    }
    let mut codebook = init::equal_population(values, clusters)?;
    let mut trace = ConvergenceTrace::default();
    let mut assignments: Vec<u8> = Vec::new();

    for iteration in 0..max_iterations {
        let new_assignments = codebook.assign(values);
        trace.l1.push(codebook.l1_norm(values, &new_assignments));
        trace.l2.push(codebook.l2_norm(values, &new_assignments));
        trace.selected_iteration = iteration;
        let converged = new_assignments == assignments;
        assignments = new_assignments;
        if converged {
            break;
        }
        codebook = codebook.update_means(values, &assignments);
    }

    Ok(Clustering { codebook, assignments, trace })
}

/// Linear quantization in its original three-pass formulation. Oracle
/// for [`crate::linear::quantize_g`].
pub fn scalar_linear_quantize_g(values: &[f32], clusters: usize) -> Result<Clustering, QuantError> {
    let codebook = init::linear(values, clusters)?;
    let assignments = codebook.assign(values);
    let trace = ConvergenceTrace {
        l1: vec![codebook.l1_norm(values, &assignments)],
        l2: vec![codebook.l2_norm(values, &assignments)],
        selected_iteration: 0,
    };
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
