//! Finite-difference gradient verification of the MGSD-WSS training loss —
//! CE through the soft multi-granularity mask plus the weak-supervision
//! gate loss — with and without ground-truth noise labels (the labelled
//! branch regresses onto constants, the unlabelled branch onto detached
//! correlation targets).

use ssdrec_data::Batch;
use ssdrec_denoise::Mgsd;
use ssdrec_models::RecModel;
use ssdrec_tensor::{fd_check_all_params, Binding, ParamStore, Rng};

fn toy_batch(noise: Option<Vec<bool>>) -> Batch {
    Batch {
        users: vec![0, 1, 2],
        items: vec![1, 2, 3, 4, 5, 6, 7, 8, 1, 3, 5, 7, 2, 4, 6, 8, 1, 2],
        seq_len: 6,
        targets: vec![5, 2, 8],
        noise,
    }
}

fn check(mut model: Mgsd, noise: Option<Vec<bool>>) {
    let batch = toy_batch(noise);
    // `loss` reads parameters only through the graph binding, so the store
    // can be moved out of the model for the duration of the check. The
    // internal RNG is reseeded per call, so the dropout mask is identical
    // across FD perturbations. The seed and the small step are chosen so
    // no central difference straddles a ReLU kink in the backbone.
    let mut store = std::mem::replace(&mut model.store, ParamStore::new());
    fd_check_all_params(&mut store, 1e-3, 2e-3, |g, bind: &Binding| {
        let mut rng = Rng::seed(17);
        model.loss(g, bind, &batch, &mut rng)
    });
    model.store = store;
}

#[test]
fn mgsd_loss_gradients_weakly_supervised() {
    // Generator labels present: the gate regresses onto *constant* keep
    // targets, so the full CE + gate loss is differentiable end-to-end and
    // finite differences see the whole thing. 6 positions × 3 users, a mix
    // of noise and clean in every segment.
    check(
        Mgsd::new(3, 8, 4, 6, 13),
        Some(vec![
            false, true, false, false, true, false, // user 0
            true, false, false, true, false, false, // user 1
            false, false, true, false, false, true, // user 2
        ]),
    );
}

#[test]
fn mgsd_loss_gradients_unlabelled_mask_path() {
    // Without labels the gate regresses onto *detached* correlation targets
    // (stop-gradient soft labels), whose movement finite differences would
    // see but the tape — by design — must not. Zeroing the gate weight
    // removes that term, leaving the fully differentiable part of the
    // unlabelled loss: CE through the soft item × segment keep mask, which
    // is exactly the path this test pins down.
    let mut model = Mgsd::new(3, 8, 4, 6, 13);
    model.ws_weight = 0.0;
    check(model, None);
}
