//! `gobo trace` and `gobo telemetry-check`: the observability face of
//! the CLI.
//!
//! `trace` quantizes a synthetic model (BERT-base geometry by default)
//! with span tracing enabled and writes the Chrome trace-event JSON —
//! load it in `chrome://tracing` or Perfetto to see which thread took
//! which layer. `telemetry-check` validates a
//! `gobo quantize --telemetry-out` file against the
//! `gobo.telemetry.v1` schema, which is what CI runs against a
//! synthetic model.

use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_obs::trace::Session;
use gobo_serve::json::{parse, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cmd::{failed, Args, CliError};

/// `gobo trace`: quantize a synthetic model under tracing and write the
/// Chrome trace.
pub(crate) fn trace(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?;
    // BERT-base geometry by default; shrink with --layers/--hidden for a
    // quick look.
    let layers: usize = args.parse_num("layers", 12)?;
    let hidden: usize = args.parse_num("hidden", 768)?;
    let heads: usize = args.parse_num("heads", if hidden.is_multiple_of(12) { 12 } else { 2 })?;
    let bits: u8 = args.parse_num("bits", 3)?;
    let seed: u64 = args.parse_num("seed", 0)?;

    let config = ModelConfig::tiny("TraceBert", layers, hidden, heads, 1000, 128)
        .map_err(|e| CliError::Failed(format!("invalid trace geometry: {e}")))?;
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).map_err(failed)?;
    let options = QuantizeOptions::gobo(bits).map_err(failed)?;

    let (outcome, session) = Session::record(|| quantize_model(&model, &options));
    let outcome = outcome.map_err(failed)?;
    std::fs::write(out, session.chrome_trace())?;

    Ok(format!(
        "traced quantization of {layers}x{hidden} at {bits} bits: \
         {} layers, {} spans ({} dropped), total wall {} us\n\
         chrome trace written to `{out}` (open in chrome://tracing or Perfetto)",
        outcome.report.layers.len(),
        session.events.len(),
        session.dropped,
        outcome.report.total_wall_us(),
    ))
}

/// `gobo telemetry-check`: validate a `--telemetry-out` JSON file.
pub(crate) fn telemetry_check(args: &Args) -> Result<String, CliError> {
    let input = args.require("input")?;
    let text = std::fs::read_to_string(input)?;
    let value =
        parse(&text).map_err(|e| CliError::Failed(format!("{input}: not valid JSON: {e}")))?;
    let fail = |msg: String| CliError::Failed(format!("{input}: {msg}"));

    match value.get("schema").and_then(Json::as_str) {
        Some("gobo.telemetry.v1") => {}
        other => return Err(fail(format!("schema is {other:?}, want gobo.telemetry.v1"))),
    }
    let layers = value
        .get("layers")
        .and_then(Json::as_array)
        .ok_or_else(|| fail("missing `layers` array".into()))?;
    if layers.is_empty() {
        return Err(fail("`layers` is empty".into()));
    }
    for (i, layer) in layers.iter().enumerate() {
        let fail_layer = |field: &str| fail(format!("layers[{i}]: bad or missing `{field}`"));
        layer.get("name").and_then(Json::as_str).ok_or_else(|| fail_layer("name"))?;
        layer.get("method").and_then(Json::as_str).ok_or_else(|| fail_layer("method"))?;
        for field in ["bits", "weights", "outliers", "iterations", "selected_iteration", "wall_us"]
        {
            let n = layer.get(field).and_then(Json::as_f64).ok_or_else(|| fail_layer(field))?;
            if n < 0.0 {
                return Err(fail_layer(field));
            }
        }
        let fraction = layer
            .get("outlier_fraction")
            .and_then(Json::as_f64)
            .ok_or_else(|| fail_layer("outlier_fraction"))?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(fail(format!("layers[{i}]: outlier_fraction {fraction} outside [0, 1]")));
        }
        layer.get("final_l1").and_then(Json::as_f64).ok_or_else(|| fail_layer("final_l1"))?;
        let occupancy = layer
            .get("bin_occupancy")
            .and_then(Json::as_array)
            .ok_or_else(|| fail_layer("bin_occupancy"))?;
        if occupancy.is_empty() {
            return Err(fail(format!("layers[{i}]: bin_occupancy is empty")));
        }
        // G-group weights (weights - outliers) must all land in a bin.
        let weights = layer.get("weights").and_then(Json::as_f64).unwrap_or(0.0);
        let outliers = layer.get("outliers").and_then(Json::as_f64).unwrap_or(0.0);
        let binned: f64 = occupancy.iter().filter_map(Json::as_f64).sum();
        if (binned - (weights - outliers)).abs() > 0.5 {
            return Err(fail(format!(
                "layers[{i}]: bin_occupancy sums to {binned}, want {}",
                weights - outliers
            )));
        }
    }
    let totals = value.get("totals").ok_or_else(|| fail("missing `totals` object".into()))?;
    for field in
        ["layers", "weights", "outliers", "outlier_fraction", "compression_ratio", "wall_us"]
    {
        totals
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| fail(format!("totals: bad or missing `{field}`")))?;
    }
    let total_layers = totals.get("layers").and_then(Json::as_f64).unwrap_or(-1.0);
    if total_layers as usize != layers.len() {
        return Err(fail(format!(
            "totals.layers is {total_layers}, but `layers` has {} entries",
            layers.len()
        )));
    }

    Ok(format!(
        "`{input}` is valid gobo.telemetry.v1: {} layers, {} weights, wall {} us",
        layers.len(),
        totals.get("weights").and_then(Json::as_f64).unwrap_or(0.0),
        totals.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

#[cfg(test)]
mod tests {
    use crate::cmd::run_str;
    use gobo_serve::json::{parse, Json};

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gobo-obs-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    /// `gobo trace` on a small synthetic model must produce a Chrome
    /// trace that parses as JSON and carries a `gobo.quantize_layer`
    /// complete event for each quantized layer, on threads the trace names.
    #[test]
    fn trace_produces_parseable_chrome_trace_with_layer_spans() {
        let out = tmp("trace.json");
        let msg =
            run_str(&["trace", "--out", &out, "--layers", "2", "--hidden", "32", "--heads", "2"])
                .unwrap();
        assert!(msg.contains("chrome trace written"), "{msg}");

        let text = std::fs::read_to_string(&out).unwrap();
        let value = parse(&text).expect("trace must be valid JSON");
        let events = value.as_array().unwrap();
        let named = |name: &'static str| {
            events.iter().filter(move |e| e.get("name").and_then(Json::as_str) == Some(name))
        };
        fn detail(e: &Json) -> Option<&str> {
            e.get("args")?.get("detail")?.as_str()
        }
        let window = |e: &Json| {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            (ts, ts + e.get("dur").and_then(Json::as_f64).expect("dur"))
        };

        // The trace ring is process-global and the sibling test below
        // quantizes its own model in parallel: its layer spans land in
        // this trace too. Count only the layers inside this run's own
        // model span, each layer once.
        // 2 encoder layers x 6 FC mats + pooler = 13 quantized layers.
        let own = named("gobo.quantize_model")
            .find(|e| detail(e).is_some_and(|d| d.starts_with("layers=13 ")))
            .expect("this run's gobo.quantize_model span");
        let (begin, end) = window(own);
        let layers: std::collections::BTreeSet<&str> = named("gobo.quantize_layer")
            .filter(|e| {
                let (ts, te) = window(e);
                begin <= ts && te <= end
            })
            .filter_map(|e| detail(e)?.strip_prefix("layer=")?.split(' ').next())
            .filter(|layer| layer.starts_with("encoder.") || *layer == "pooler")
            .collect();
        assert_eq!(layers.len(), 13, "{layers:?}\n{msg}");
        // Every thread a layer ran on — the caller and the `gobo-par-N`
        // workers beside it, none on a one-core host — is named in the
        // trace's metadata.
        let tid = |e: &Json| e.get("tid").and_then(Json::as_f64).map(f64::to_bits);
        let named_tids: Vec<_> = named("thread_name").map(tid).collect();
        assert!(
            named("gobo.quantize_layer").all(|e| named_tids.contains(&tid(e))),
            "a layer span on a thread the trace does not name"
        );
    }

    #[test]
    fn telemetry_check_accepts_quantize_output_and_rejects_garbage() {
        let raw = tmp("tele.gobor");
        let packed = tmp("tele.gobom");
        let telemetry = tmp("tele.json");
        run_str(&["demo", "--output", &raw, "--layers", "1", "--hidden", "16"]).unwrap();
        run_str(&["quantize", "--input", &raw, "--output", &packed, "--telemetry-out", &telemetry])
            .unwrap();
        let msg = run_str(&["telemetry-check", "--input", &telemetry]).unwrap();
        assert!(msg.contains("valid gobo.telemetry.v1"), "{msg}");

        let bad = tmp("bad.json");
        std::fs::write(&bad, "{\"schema\":\"nope\"}").unwrap();
        let err = run_str(&["telemetry-check", "--input", &bad]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");

        let garbage = tmp("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(run_str(&["telemetry-check", "--input", &garbage]).is_err());
    }
}
