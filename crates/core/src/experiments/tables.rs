//! Reproduction runners for the paper's six tables.
//!
//! Each `run_tableN` trains whatever attacks the table compares, drives
//! the challenge videos, and returns a [`Table`] whose rows/columns match
//! the paper's layout. The bench crate's `repro_tableN` binaries print
//! these next to the paper's reported values.

use rd_scene::PhysicalChannel;
use rd_vision::shapes::Shape;

use crate::attack::{deploy, AttackConfig, Deployment, TrainedDecal};
use crate::baseline::{train_baseline_patch, BaselineConfig};
use crate::eval::{evaluate_challenge, Challenge, EvalConfig};
use crate::metrics::{Cell, Table};
use crate::runner::train_decal_attack_recoverable;
use crate::scenario::AttackScenario;

use super::scale::{Environment, ExperimentError, ExperimentRecovery, Scale};

/// Trains one table row's attack under the environment's recovery
/// policy; `stage` names the row's checkpoint file.
fn train_attack(
    env: &mut Environment,
    stage: &str,
    scenario: &AttackScenario,
    cfg: &AttackConfig,
) -> Result<TrainedDecal, ExperimentError> {
    let opts = env.recovery.for_stage(stage);
    let (trained, report) =
        train_decal_attack_recoverable(scenario, &env.detector, &mut env.params, cfg, &opts)?;
    ExperimentRecovery::log_stage(stage, &report);
    Ok(trained)
}

fn eval_cfg(scale: Scale, channel: PhysicalChannel, seed: u64) -> EvalConfig {
    match scale {
        Scale::Paper => EvalConfig {
            channel,
            ..EvalConfig::real_world(seed)
        },
        Scale::Smoke => EvalConfig {
            channel,
            runs: 1,
            ..EvalConfig::smoke(seed)
        },
    }
}

fn eval_row(
    env: &mut Environment,
    scenario: &AttackScenario,
    decals: &Deployment,
    columns: &[Challenge],
    ecfg: &EvalConfig,
    target: rd_scene::ObjectClass,
) -> Vec<Cell> {
    columns
        .iter()
        .map(|&c| {
            evaluate_challenge(
                scenario,
                decals,
                &env.detector,
                &env.params,
                target,
                c,
                ecfg,
            )
            .cell
        })
        .collect()
}

/// Table I — real-world comparison: no attack, ours with/without
/// consecutive frames, and the colored baseline [34], across all eight
/// challenge columns. Uses N = 6, k = 60 (§IV-B, real-world paragraph).
///
/// # Errors
///
/// Returns an [`ExperimentError`] when a training stage's checkpoint
/// cannot be read or written under the environment's recovery policy.
pub fn run_table1(env: &mut Environment, seed: u64) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let scenario = AttackScenario::parking_lot(scale.rig(), 6, 60, 16, seed);
    let cfg = AttackConfig {
        steps: scale.attack_steps(),
        seed,
        audit: env.audit,
        ..AttackConfig::paper()
    };
    let columns = Challenge::table_columns();
    let headers: Vec<String> = columns.iter().map(|c| c.label()).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table I: comparison under three challenges (real-world channel)",
        &header_refs,
    );
    let ecfg = eval_cfg(scale, PhysicalChannel::real_world(), seed);

    // row 1: w/o attack
    let clean = eval_row(
        env,
        &scenario,
        &Deployment::none(),
        &columns,
        &ecfg,
        cfg.target_class,
    );
    table.push_row("w/o Attack", clean);

    // row 2: ours with 3 consecutive frames
    let ours = train_attack(env, "table1 ours consecutive", &scenario, &cfg)?;
    let decals = deploy(&ours.decal, &scenario);
    let row = eval_row(env, &scenario, &decals, &columns, &ecfg, cfg.target_class);
    table.push_row("Ours (w/ 3 consecutive frames)", row);

    // row 3: ours without consecutive frames
    let solo_cfg = cfg.without_consecutive_frames();
    let solo = train_attack(env, "table1 ours solo", &scenario, &solo_cfg)?;
    let decals = deploy(&solo.decal, &scenario);
    let row = eval_row(env, &scenario, &decals, &columns, &ecfg, cfg.target_class);
    table.push_row("Ours (w/o 3 consecutive frames)", row);

    // row 4: the colored baseline [34]
    let bl = train_baseline_patch(
        &scenario,
        &env.detector,
        &env.params,
        &BaselineConfig::matched(&cfg),
    );
    let decals = deploy(&bl.decal, &scenario);
    let row = eval_row(env, &scenario, &decals, &columns, &ecfg, cfg.target_class);
    table.push_row("[34]", row);

    Ok(table)
}

/// Table II — the indoor "simulated environment": ours only, N = 4,
/// k = 60, gentler capture channel, all eight columns.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when a training stage's checkpoint
/// cannot be read or written under the environment's recovery policy.
pub fn run_table2(env: &mut Environment, seed: u64) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let scenario = AttackScenario::parking_lot(scale.rig(), 4, 60, 16, seed);
    let cfg = AttackConfig {
        steps: scale.attack_steps(),
        seed,
        audit: env.audit,
        ..AttackConfig::paper()
    };
    let columns = Challenge::table_columns();
    let headers: Vec<String> = columns.iter().map(|c| c.label()).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new("Table II: ours in the simulated environment", &header_refs);
    let ecfg = eval_cfg(scale, PhysicalChannel::simulated(), seed);
    let ours = train_attack(env, "table2 ours", &scenario, &cfg)?;
    let decals = deploy(&ours.decal, &scenario);
    let row = eval_row(env, &scenario, &decals, &columns, &ecfg, cfg.target_class);
    table.push_row("Ours", row);
    Ok(table)
}

/// Shared driver for the four ablation tables: train one attack per
/// variant and evaluate on the six speed+angle columns. `stage_prefix`
/// namespaces each variant's checkpoint file.
fn ablation_table(
    env: &mut Environment,
    title: &str,
    stage_prefix: &str,
    seed: u64,
    variants: Vec<(String, AttackScenario, AttackConfig)>,
) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let columns = Challenge::ablation_columns();
    let headers: Vec<String> = columns.iter().map(|c| c.label()).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    let ecfg = eval_cfg(scale, PhysicalChannel::real_world(), seed);
    for (label, scenario, cfg) in variants {
        let stage = format!("{stage_prefix} {label}");
        let trained = train_attack(env, &stage, &scenario, &cfg)?;
        let decals = deploy(&trained.decal, &scenario);
        let row = eval_row(env, &scenario, &decals, &columns, &ecfg, cfg.target_class);
        table.push_row(label, row);
    }
    Ok(table)
}

/// Table III — ablation over the number of decals N ∈ {2, 4, 6, 8} at
/// constant total area.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when a training stage's checkpoint
/// cannot be read or written under the environment's recovery policy.
pub fn run_table3(env: &mut Environment, seed: u64) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let base = AttackConfig {
        steps: scale.attack_steps(),
        seed,
        audit: env.audit,
        ..AttackConfig::paper()
    };
    let variants = [2usize, 4, 6, 8]
        .into_iter()
        .map(|n| {
            (
                format!("N={n}"),
                AttackScenario::parking_lot(scale.rig(), n, 60, 16, seed),
                base,
            )
        })
        .collect();
    ablation_table(
        env,
        "Table III: number of decals N",
        "table3",
        seed,
        variants,
    )
}

/// Table IV — ablation over EOT trick combinations (Table IV rows).
///
/// # Errors
///
/// Returns an [`ExperimentError`] when a training stage's checkpoint
/// cannot be read or written under the environment's recovery policy.
pub fn run_table4(env: &mut Environment, seed: u64) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let scenario = AttackScenario::parking_lot(scale.rig(), 4, 60, 16, seed);
    let variants = rd_eot::table4_combinations()
        .into_iter()
        .map(|tricks| {
            let cfg = AttackConfig {
                steps: scale.attack_steps(),
                seed,
                eot: rd_eot::EotConfig::with_tricks(tricks),
                audit: env.audit,
                ..AttackConfig::paper()
            };
            (tricks.to_string(), scenario.clone(), cfg)
        })
        .collect();
    ablation_table(
        env,
        "Table IV: EOT trick combinations",
        "table4",
        seed,
        variants,
    )
}

/// Table V — ablation over decal shapes.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when a training stage's checkpoint
/// cannot be read or written under the environment's recovery policy.
pub fn run_table5(env: &mut Environment, seed: u64) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let scenario = AttackScenario::parking_lot(scale.rig(), 4, 60, 16, seed);
    let variants = Shape::ALL
        .into_iter()
        .map(|shape| {
            let cfg = AttackConfig {
                steps: scale.attack_steps(),
                seed,
                shape,
                audit: env.audit,
                ..AttackConfig::paper()
            };
            (shape.name().to_owned(), scenario.clone(), cfg)
        })
        .collect();
    ablation_table(env, "Table V: decal shapes", "table5", seed, variants)
}

/// Table VI — ablation over decal size k ∈ {20, 40, 60, 80}.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when a training stage's checkpoint
/// cannot be read or written under the environment's recovery policy.
pub fn run_table6(env: &mut Environment, seed: u64) -> Result<Table, ExperimentError> {
    let scale = env.scale;
    let base = AttackConfig {
        steps: scale.attack_steps(),
        seed,
        audit: env.audit,
        ..AttackConfig::paper()
    };
    let variants = [20usize, 40, 60, 80]
        .into_iter()
        .map(|k| {
            (
                format!("k={k}"),
                AttackScenario::parking_lot(scale.rig(), 4, k, 16, seed),
                base,
            )
        })
        .collect();
    ablation_table(env, "Table VI: decal size k", "table6", seed, variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::prepare_environment;

    // One structural smoke test per table shape; heavier correctness
    // checks live in the integration suite and the repro binaries.
    #[test]
    fn table2_smoke_has_paper_layout() {
        let mut env = prepare_environment(Scale::Smoke, 3);
        let t = run_table2(&mut env, 3).expect("table2 runs");
        assert_eq!(t.columns.len(), 8);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].0, "Ours");
    }

    #[test]
    fn table5_smoke_rows_are_shapes() {
        let mut env = prepare_environment(Scale::Smoke, 3);
        let t = run_table5(&mut env, 3).expect("table5 runs");
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[2].0, "star");
        assert_eq!(t.columns.len(), 6);
    }
}
