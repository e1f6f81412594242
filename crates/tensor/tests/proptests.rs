//! Property-based tests for the tensor substrate.

use gobo_tensor::linalg::{merge_heads, split_heads, transpose_batched};
use gobo_tensor::Tensor;
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|v| (v * 100.0).round() / 100.0)
}

fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        proptest::collection::vec(finite_f32(), r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).expect("sized"))
    })
}

proptest! {
    #[test]
    fn transpose_is_involutive(m in matrix(12)) {
        let t = m.transpose().unwrap();
        prop_assert_eq!(t.transpose().unwrap(), m);
    }

    #[test]
    fn matmul_identity_left_and_right(m in matrix(10)) {
        let (r, c) = (m.dims()[0], m.dims()[1]);
        prop_assert_eq!(Tensor::eye(r).matmul_nt(&m.transpose().unwrap()).unwrap(), m.clone());
        prop_assert_eq!(m.matmul_nt(&Tensor::eye(c)).unwrap(), m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix(8), b in matrix(8), seed in any::<u64>()
    ) {
        // Shape-align b to a's shape by regenerating; simplest is to reuse a's dims.
        let _ = seed;
        let dims = a.dims().to_vec();
        let b = match b.reshape(&dims) {
            Ok(t) => t,
            Err(_) => return Ok(()), // incompatible random sizes: skip
        };
        let c = Tensor::ones(&[3, dims[1]]);
        let lhs = a.add(&b).unwrap().matmul_nt(&c).unwrap();
        let rhs = a.matmul_nt(&c).unwrap().add(&b.matmul_nt(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn matmul_nt_agrees_with_matmul(a in matrix(9), w in matrix(9)) {
        if a.dims()[1] != w.dims()[1] {
            return Ok(());
        }
        // The naive triple loop over the explicit transpose, summed in
        // column order.
        let nt = a.matmul_nt(&w).unwrap();
        let wt = w.transpose().unwrap();
        let (m, k, n) = (a.dims()[0], a.dims()[1], w.dims()[0]);
        for i in 0..m {
            for j in 0..n {
                let naive: f32 =
                    (0..k).map(|p| a.get(&[i, p]).unwrap() * wt.get(&[p, j]).unwrap()).sum();
                prop_assert!((nt.get(&[i, j]).unwrap() - naive).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix(10)) {
        let s = m.softmax().unwrap();
        prop_assert!(s.all_finite());
        let rows = m.dims()[0];
        for r in 0..rows {
            let row = s.row(r).unwrap();
            prop_assert!(row.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert!((row.sum() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_preserves_row_ranking(m in matrix(6)) {
        let s = m.softmax().unwrap();
        prop_assert_eq!(m.argmax_rows().unwrap(), s.argmax_rows().unwrap());
    }

    #[test]
    fn layer_norm_output_is_normalized(m in matrix(10)) {
        let cols = m.dims()[1];
        if cols < 2 {
            return Ok(());
        }
        // Skip degenerate constant rows, where variance stays ~0.
        let data = m.as_slice();
        for r in 0..m.dims()[0] {
            let row = &data[r * cols..(r + 1) * cols];
            if row.iter().all(|&v| (v - row[0]).abs() < 1e-6) {
                return Ok(());
            }
        }
        let y = m
            .layer_norm(&Tensor::ones(&[cols]), &Tensor::zeros(&[cols]), 1e-12)
            .unwrap();
        for mo in gobo_tensor::norm::row_moments(&y).unwrap() {
            prop_assert!(mo.mean.abs() < 1e-3);
            prop_assert!((mo.var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn split_merge_heads_round_trip(rows in 1usize..8, heads in 1usize..5, hd in 1usize..6) {
        let cols = heads * hd;
        let m = Tensor::from_vec((0..rows * cols).map(|v| v as f32).collect(), &[rows, cols]).unwrap();
        let rt = merge_heads(&split_heads(&m, heads).unwrap()).unwrap();
        prop_assert_eq!(rt, m);
    }

    #[test]
    fn transpose_batched_is_involutive(b in 1usize..4, m in 1usize..6, n in 1usize..6) {
        let x = Tensor::from_vec((0..b * m * n).map(|v| v as f32 * 0.5).collect(), &[b, m, n]).unwrap();
        let rt = transpose_batched(&transpose_batched(&x).unwrap()).unwrap();
        prop_assert_eq!(rt, x);
    }

    #[test]
    fn stack_rows_then_row_extracts(vals in proptest::collection::vec(finite_f32(), 1..40), cols in 1usize..8) {
        let n = (vals.len() / cols).max(1);
        let rows: Vec<Tensor> = (0..n)
            .map(|r| {
                let mut row = vec![0.0f32; cols];
                for c in 0..cols {
                    row[c] = vals[(r * cols + c) % vals.len()];
                }
                Tensor::from_vec(row, &[cols]).unwrap()
            })
            .collect();
        let stacked: Vec<f32> = rows.iter().flat_map(|row| row.as_slice().to_vec()).collect();
        let m = Tensor::from_vec(stacked, &[n, cols]).unwrap();
        for (r, original) in rows.iter().enumerate() {
            prop_assert_eq!(&m.row(r).unwrap(), original);
        }
    }
}
