//! An Eq. 1 evaluator written from the paper, independent of
//! `tdmd-core`'s objective code, so the benchmark can check every
//! figure the program reports.
//!
//! A flow of rate `r` on a path of `|p|` hops that is processed at the
//! deployed vertex `i` hops from its source consumes `r·i` upstream of
//! the box and `λ·r·(|p| − i)` after it; the optimal allocation picks
//! the deployed vertex nearest the source. A flow with no deployed
//! vertex on its path is unserved and consumes `r·|p|`. With λ = 0.5
//! and integral rates every term is a multiple of 0.5, so sums are
//! exact in `f64` whatever the order and comparisons can demand bitwise
//! equality.

/// What the evaluator found for one deployment over one flow set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Evaluation {
    /// Eq. 1: total bandwidth consumption.
    pub bandwidth: f64,
    /// `Σ r·|p|`: the bandwidth with no middlebox at all.
    pub unprocessed: f64,
    /// Flows evaluated.
    pub flows: u64,
    /// Flows with no deployed vertex on their path.
    pub unserved: u64,
}

/// A deployment as a vertex membership table.
pub fn membership(nodes: usize, deployment: &[u32]) -> Vec<bool> {
    let mut deployed = vec![false; nodes];
    for &v in deployment {
        deployed[v as usize] = true;
    }
    deployed
}

/// Charges one flow; returns `(consumption, served)`.
pub fn charge(rate: u64, path: &[u32], lambda: f64, deployed: &[bool]) -> (f64, bool) {
    let hops = path.len().saturating_sub(1) as f64;
    let r = rate as f64;
    match path.iter().position(|&v| deployed[v as usize]) {
        Some(i) => (r * i as f64 + lambda * r * (hops - i as f64), true),
        None => (r * hops, false),
    }
}

/// Evaluates `deployed` over `(rate, path)` flows.
pub fn evaluate<'a>(
    flows: impl IntoIterator<Item = (u64, &'a [u32])>,
    lambda: f64,
    deployed: &[bool],
) -> Evaluation {
    let mut e = Evaluation::default();
    for (rate, path) in flows {
        let (cost, served) = charge(rate, path, lambda, deployed);
        e.bandwidth += cost;
        e.unprocessed += rate as f64 * path.len().saturating_sub(1) as f64;
        e.flows += 1;
        e.unserved += u64::from(!served);
    }
    e
}

/// Checks a cold solve: the deployment has at most `k` distinct
/// vertices, serves every flow, and `reported` (the program's
/// objective) equals the evaluator's Eq. 1 value and lies inside the
/// Lemma 1 envelope `λ·Σr|p| ≤ b ≤ Σr|p|`. Returns the evaluation.
pub fn check_cold<'a>(
    flows: impl IntoIterator<Item = (u64, &'a [u32])>,
    lambda: f64,
    nodes: usize,
    k: usize,
    deployment: &[u32],
    reported: f64,
) -> Result<Evaluation, String> {
    let mut distinct = deployment.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > k {
        return Err(format!(
            "deployment has {} vertices, budget is {k}",
            distinct.len()
        ));
    }
    if let Some(&v) = distinct.iter().find(|&&v| v as usize >= nodes) {
        return Err(format!(
            "deployment vertex {v} outside the {nodes}-vertex graph"
        ));
    }
    let e = evaluate(flows, lambda, &membership(nodes, &distinct));
    if e.unserved > 0 {
        return Err(format!(
            "infeasible deployment: {} flows unserved",
            e.unserved
        ));
    }
    if reported.to_bits() != e.bandwidth.to_bits() {
        return Err(format!(
            "objective {reported} differs from the Eq. 1 evaluation {}",
            e.bandwidth
        ));
    }
    if !(lambda * e.unprocessed <= e.bandwidth && e.bandwidth <= e.unprocessed) {
        return Err(format!(
            "objective {} outside the Lemma 1 envelope [{}, {}]",
            e.bandwidth,
            lambda * e.unprocessed,
            e.unprocessed
        ));
    }
    Ok(e)
}

/// Demands bitwise equality of a reported figure with the evaluator's.
pub fn same(what: &str, reported: f64, expected: f64) -> Result<(), String> {
    if reported.to_bits() == expected.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: program reports {reported}, evaluator {expected}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fig. 1-like toy: 0 → 1 → 2 carrying rate 5, 1 → 2 carrying rate 3.
    fn flows() -> Vec<(u64, Vec<u32>)> {
        vec![(5, vec![0, 1, 2]), (3, vec![1, 2])]
    }

    fn view(f: &[(u64, Vec<u32>)]) -> impl Iterator<Item = (u64, &[u32])> {
        f.iter().map(|(r, p)| (*r, p.as_slice()))
    }

    #[test]
    fn charges_at_the_deployed_vertex_nearest_the_source() {
        let f = flows();
        // Box at 1: 5·1 + 0.5·5·1 + 0.5·3·1 = 9.
        let e = evaluate(view(&f), 0.5, &membership(3, &[1]));
        assert_eq!(e.bandwidth, 9.0);
        assert_eq!(e.unprocessed, 13.0);
        // Boxes at 0 and 1: flow 0 is charged at 0 (nearer its source).
        let e = evaluate(view(&f), 0.5, &membership(3, &[0, 1]));
        assert_eq!(e.bandwidth, 0.5 * 10.0 + 0.5 * 3.0);
        // Box at 0 only: flow 1 is unserved at its full rate.
        let e = evaluate(view(&f), 0.5, &membership(3, &[0]));
        assert_eq!(e.unserved, 1);
        assert_eq!(e.bandwidth, 5.0 + 3.0);
    }

    #[test]
    fn accepts_the_right_answer() {
        let f = flows();
        assert!(check_cold(view(&f), 0.5, 3, 1, &[1], 9.0).is_ok());
    }

    #[test]
    fn rejects_a_wrong_deployment_or_objective() {
        let f = flows();
        // Infeasible: vertex 0 leaves flow 1 unserved.
        assert!(check_cold(view(&f), 0.5, 3, 1, &[0], 8.0).is_err());
        // Over budget.
        assert!(check_cold(view(&f), 0.5, 3, 1, &[1, 2], 9.0).is_err());
        // Vertex outside the graph.
        assert!(check_cold(view(&f), 0.5, 3, 1, &[7], 9.0).is_err());
        // Feasible deployment, wrong objective (off by one half-unit).
        assert!(check_cold(view(&f), 0.5, 3, 1, &[1], 9.5).is_err());
        // Feasible deployment, objective of a different deployment.
        assert!(check_cold(view(&f), 0.5, 3, 1, &[2], 9.0).is_err());
        assert!(same("objective", 9.5, 9.0).is_err());
        assert!(same("objective", 9.0, 9.0).is_ok());
    }
}
