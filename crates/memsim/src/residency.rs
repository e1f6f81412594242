//! On-chip residency: the paper's "amplify capacity" claim.
//!
//! Section I argues compression "amplifies bandwidth, capacity,
//! performance and energy efficiency". Capacity amplification has a
//! concrete consequence: once the *compressed* model fits in on-chip
//! SRAM, weights are fetched from DRAM once and every subsequent
//! inference runs out of SRAM. This module computes where that
//! crossover happens and the steady-state energy per inference on
//! either side of it.

use crate::energy::EnergyModel;
use crate::traffic::InferenceTraffic;

/// Whether a model's weights are DRAM-streamed or SRAM-resident for a
/// given on-chip capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Weights exceed on-chip capacity: streamed from DRAM every
    /// inference.
    Streamed,
    /// Weights fit on-chip: DRAM pays once, then inferences are
    /// SRAM-only (plus activations).
    Resident,
}

/// Residency analysis of one model at one compression ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyReport {
    /// Weight + embedding bytes after compression.
    pub compressed_weight_bytes: f64,
    /// On-chip capacity assumed, bytes.
    pub sram_capacity_bytes: f64,
    /// Residency verdict.
    pub residency: Residency,
    /// Steady-state energy per inference, microjoules (amortized over
    /// many inferences; the one-time DRAM fill is excluded).
    pub steady_state_energy_uj: f64,
    /// Steady-state bandwidth-bound latency per inference, ms.
    pub steady_state_latency_ms: f64,
}

/// Computes residency for a model's traffic profile under `model`
/// constants and `sram_capacity_bytes` of on-chip memory.
///
/// When weights are resident, only activations cross the DRAM
/// interface per inference; weights are re-read from SRAM at the SRAM
/// energy rate.
pub fn analyze(
    traffic: &InferenceTraffic,
    energy_model: &EnergyModel,
    sram_capacity_bytes: f64,
) -> ResidencyReport {
    let weight_bytes = traffic.weight_bytes + traffic.embedding_bytes;
    let resident = weight_bytes <= sram_capacity_bytes;
    let (energy, latency) = if resident {
        // Weights from SRAM; activations still cross DRAM.
        let act = traffic.activation_bytes;
        let energy = (act * (energy_model.dram_pj_per_byte + energy_model.sram_pj_per_byte)
            + weight_bytes * energy_model.sram_pj_per_byte)
            / 1e6;
        let latency = act / energy_model.dram_bytes_per_sec * 1e3;
        (energy, latency)
    } else {
        (energy_model.energy(traffic), energy_model.latency_ms(traffic))
    };
    ResidencyReport {
        compressed_weight_bytes: weight_bytes,
        sram_capacity_bytes,
        residency: if resident { Residency::Resident } else { Residency::Streamed },
        steady_state_energy_uj: energy,
        steady_state_latency_ms: latency,
    }
}

/// The smallest compression ratio at which a model's weights become
/// SRAM-resident for the given capacity (`None` for no weights or no
/// SRAM) — the tests' probe of where [`analyze`] flips to resident.
#[cfg(test)]
fn crossover_ratio(fp32: &InferenceTraffic, sram_capacity_bytes: f64) -> Option<f64> {
    let weight_bytes = fp32.weight_bytes + fp32.embedding_bytes;
    if weight_bytes <= 0.0 || sram_capacity_bytes <= 0.0 {
        return None;
    }
    Some((weight_bytes / sram_capacity_bytes).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo_model::config::ModelConfig;
    use gobo_model::footprint::Footprint;

    fn bert_base_traffic() -> InferenceTraffic {
        InferenceTraffic::fp32(&Footprint::of(&ModelConfig::bert_base(), 128))
    }

    #[test]
    fn fp32_bert_base_does_not_fit_32mb() {
        let t = bert_base_traffic();
        let r = analyze(&t, &EnergyModel::default(), 32.0 * 1024.0 * 1024.0);
        assert_eq!(r.residency, Residency::Streamed);
    }

    #[test]
    fn ten_x_compression_makes_bert_base_resident_in_48mb() {
        // 326 MB weights + 0.4 MB embeddings rows / 9.8 ≈ 35 MB < 48 MB —
        // a plausible large-SoC SRAM; the paper's capacity amplification.
        let t = bert_base_traffic().with_weight_compression(9.8);
        let r = analyze(&t, &EnergyModel::default(), 48.0 * 1024.0 * 1024.0);
        assert_eq!(r.residency, Residency::Resident);
    }

    #[test]
    fn residency_slashes_steady_state_energy() {
        let capacity = 48.0 * 1024.0 * 1024.0;
        let energy_model = EnergyModel::default();
        let streamed = analyze(&bert_base_traffic(), &energy_model, capacity);
        let resident =
            analyze(&bert_base_traffic().with_weight_compression(9.8), &energy_model, capacity);
        assert_eq!(streamed.residency, Residency::Streamed);
        assert_eq!(resident.residency, Residency::Resident);
        let saving = streamed.steady_state_energy_uj / resident.steady_state_energy_uj;
        // Residency compounds on top of compression: well beyond the
        // ~8x pure-traffic saving.
        assert!(saving > 15.0, "saving {saving}");
        assert!(resident.steady_state_latency_ms < streamed.steady_state_latency_ms / 5.0);
    }

    #[test]
    fn crossover_ratio_matches_analyze() {
        let t = bert_base_traffic();
        let capacity = 48.0 * 1024.0 * 1024.0;
        let ratio = crossover_ratio(&t, capacity).expect("finite weights");
        // Just below the crossover: still streamed; at it: resident.
        let below =
            analyze(&t.with_weight_compression(ratio * 0.99), &EnergyModel::default(), capacity);
        let at =
            analyze(&t.with_weight_compression(ratio * 1.01), &EnergyModel::default(), capacity);
        assert_eq!(below.residency, Residency::Streamed);
        assert_eq!(at.residency, Residency::Resident);
    }

    #[test]
    fn degenerate_inputs() {
        let t = bert_base_traffic();
        assert!(crossover_ratio(&t, 0.0).is_none());
        let empty =
            InferenceTraffic { weight_bytes: 0.0, embedding_bytes: 0.0, activation_bytes: 1.0 };
        assert!(crossover_ratio(&empty, 1024.0).is_none());
        // A tiny model fits without compression: ratio clamps to 1.
        let small =
            InferenceTraffic { weight_bytes: 10.0, embedding_bytes: 0.0, activation_bytes: 1.0 };
        assert_eq!(crossover_ratio(&small, 1024.0), Some(1.0));
    }
}
