//! Integration: serialized archives against the training/evaluation
//! pipeline. (Compressed-domain compute against the decoded model is the
//! differential oracle's, `crates/cli/tests/oracle.rs`.)

use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo::zoo::{train_zoo_model, PaperModel, ZooScale};
use gobo_quant::container::ModelArchive;
use gobo_tasks::TaskKind;
use gobo_tensor::Tensor;

#[test]
fn archive_round_trip_preserves_task_accuracy() {
    let zoo =
        train_zoo_model(PaperModel::DistilBert, TaskKind::Nli, ZooScale::Smoke).expect("training");
    let outcome =
        quantize_model(&zoo.model, &QuantizeOptions::gobo(3).expect("opts")).expect("quantize");

    // Ship the archive through bytes (the off-chip path) and rebuild the
    // model from it.
    let bytes = outcome.archive.to_bytes();
    let restored = ModelArchive::from_bytes(&bytes).expect("deserialize");
    let mut rebuilt = zoo.model.clone();
    for (name, layer) in restored.iter() {
        let dims = rebuilt.weight(name).expect("layer").dims().to_vec();
        rebuilt
            .set_weight(name, Tensor::from_vec(layer.decode(), &dims).expect("shape"))
            .expect("set");
    }

    // Bit-identical to the pipeline's decoded model → identical score.
    let direct = gobo_tasks::evaluate(&outcome.model, &zoo.head, &zoo.test_data).expect("eval");
    let shipped = gobo_tasks::evaluate(&rebuilt, &zoo.head, &zoo.test_data).expect("eval");
    assert_eq!(direct.value, shipped.value);
}

#[test]
fn cli_formats_interoperate_with_pipeline() {
    // The CLI's compressed format must round-trip a *trained* model, not
    // just random weights, and reproduce the pipeline's decode.
    let zoo =
        train_zoo_model(PaperModel::DistilBert, TaskKind::Sts, ZooScale::Smoke).expect("training");
    let options = QuantizeOptions::gobo(4).expect("opts").with_embedding_bits(4).expect("emb");
    let outcome = quantize_model(&zoo.model, &options).expect("quantize");

    let compressed = gobo::format::CompressedModel::new(&zoo.model, outcome.archive.clone());
    let bytes = compressed.to_bytes();
    let restored = gobo::format::CompressedModel::from_bytes(&bytes).expect("read");
    let decoded = restored.decode().expect("decode");

    for spec in zoo.model.fc_layers() {
        assert_eq!(
            decoded.weight(&spec.name).expect("w"),
            outcome.model.weight(&spec.name).expect("w"),
            "{}",
            spec.name
        );
    }
    // Scores agree exactly.
    let a = gobo_tasks::evaluate(&outcome.model, &zoo.head, &zoo.test_data).expect("eval");
    let b = gobo_tasks::evaluate(&decoded, &zoo.head, &zoo.test_data).expect("eval");
    assert_eq!(a.value, b.value);
}
