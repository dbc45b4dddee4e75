"""Tests for the docking engine: ligands, pockets, scoring, search, multi-seed runs."""

import numpy as np
import pytest

from repro.bio.geometry import random_rotation, rotation_matrix
from repro.bio.reference import ReferenceStructureGenerator
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.docking.pocket import find_pocket, find_pockets
from repro.docking.scoring import CUTOFF, ScoringWeights, VinaScoringFunction
from repro.docking.search import MonteCarloPoseSearch, Pose, run_lockstep, walker_rngs
from repro.docking.vina import DockingEngine, DockingResult, pose_rmsd_lower, pose_rmsd_upper
from repro.exceptions import DockingError
from repro.utils.rng import child_seed, rng_for


@pytest.fixture(scope="module")
def reference_record():
    return ReferenceStructureGenerator().generate("3eax", "RYRDV")


@pytest.fixture(scope="module")
def ligand(reference_record):
    return SyntheticLigandGenerator().generate(reference_record)


# -- ligand model -----------------------------------------------------------------


def test_ligand_validation():
    with pytest.raises(DockingError):
        Ligand("bad", np.zeros((0, 3)), [], np.array([]), np.array([]), np.array([]), np.array([]))
    with pytest.raises(DockingError):
        Ligand(
            "bad",
            np.zeros((2, 3)),
            ["C", "C"],
            np.array([True]),  # wrong length
            np.array([False, False]),
            np.array([False, False]),
            np.array([0.0, 0.0]),
        )


def test_synthetic_ligand_properties(reference_record, ligand):
    assert 3 <= ligand.num_atoms <= 18
    assert ligand.num_rotatable_bonds >= 0
    # Deterministic: regenerating gives the same molecule.
    again = SyntheticLigandGenerator().generate(reference_record)
    assert np.allclose(again.coords, ligand.coords)
    # The ligand does not clash with the reference receptor it was grown in.
    receptor_coords = reference_record.structure.all_coords()
    dist = np.linalg.norm(ligand.coords[:, None, :] - receptor_coords[None, :, :], axis=2)
    assert dist.min() > 3.0


def test_ligand_centered_uses_anchor(ligand):
    centered = ligand.centered()
    assert np.allclose(centered.coords, ligand.coords - ligand.anchor)
    assert np.allclose(centered.anchor, 0.0)


def test_ligand_transformed_stack_matches_one_pose_at_a_time(ligand):
    rng = np.random.default_rng(2)
    rotations = np.stack([random_rotation(rng) for _ in range(6)])
    translations = rng.normal(scale=5.0, size=(6, 3))
    stacked = ligand.transformed(rotations, translations)
    assert stacked.shape == (6, ligand.num_atoms, 3)
    for r, t, coords in zip(rotations, translations, stacked):
        assert np.array_equal(coords, ligand.coords @ r.T + t)
        assert np.array_equal(coords, ligand.transformed(r, t))


def test_ligand_size_scales_with_fragment_length(reference_record):
    big_ref = ReferenceStructureGenerator().generate("4jpy", "DYLEAYGKGGVKAK")
    small = SyntheticLigandGenerator().generate(reference_record)
    big = SyntheticLigandGenerator().generate(big_ref)
    assert big.num_atoms >= small.num_atoms


# -- pocket detection ---------------------------------------------------------------


def test_find_pocket_outside_receptor(reference_record):
    pocket = find_pocket(reference_record.structure)
    coords = reference_record.structure.all_coords()
    min_dist = np.linalg.norm(coords - pocket.center, axis=1).min()
    assert min_dist > 3.0  # no steric clash
    assert pocket.contact_count > 0


def test_find_pockets_distinct(reference_record):
    sites = find_pockets(reference_record.structure, num_sites=3)
    assert 1 <= len(sites) <= 3
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            assert np.linalg.norm(sites[i].center - sites[j].center) >= 4.0


# -- scoring ---------------------------------------------------------------------------


def test_scoring_clash_is_penalised(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    good = scorer.score_coords(ligand.coords)
    # Slam the ligand into the receptor centre: heavy steric repulsion.
    clashed = ligand.coords - (ligand.coords.mean(axis=0) - reference_record.structure.centroid())
    bad = scorer.score_coords(clashed)
    assert good < bad


def test_scoring_far_away_is_zero(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    far = ligand.coords + np.array([500.0, 0.0, 0.0])
    assert scorer.score_coords(far) == pytest.approx(0.0, abs=1e-6)


def test_scoring_rotor_penalty_reduces_magnitude(reference_record, ligand):
    rigid = Ligand(
        ligand.name, ligand.coords, list(ligand.elements), ligand.hydrophobic,
        ligand.donor, ligand.acceptor, ligand.charges, num_rotatable_bonds=0, anchor=ligand.anchor,
    )
    flexible = Ligand(
        ligand.name, ligand.coords, list(ligand.elements), ligand.hydrophobic,
        ligand.donor, ligand.acceptor, ligand.charges, num_rotatable_bonds=10, anchor=ligand.anchor,
    )
    s_rigid = VinaScoringFunction(reference_record.structure, rigid).score_coords(ligand.coords)
    s_flex = VinaScoringFunction(reference_record.structure, flexible).score_coords(ligand.coords)
    assert abs(s_flex) < abs(s_rigid)


def test_scoring_shape_mismatch_raises(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    with pytest.raises(DockingError):
        scorer.score_coords(np.zeros((2, 3)))


# -- batched scoring ----------------------------------------------------------------------


def _pose_batch(ligand, center, count, seed=0):
    """Random rigid poses: half clustered at the pocket, half scattered wide."""
    rng = np.random.default_rng(seed)
    scales = [2.0 if i % 2 == 0 else 30.0 for i in range(count)]
    return np.stack(
        [
            ligand.transformed(random_rotation(rng), center + rng.normal(scale=scale, size=3))
            for scale in scales
        ]
    )


def _full_matrix_scores(scorer, coords):
    """Reference evaluation: every term on the full (P, A, R) tensor, masked after."""
    w = scorer.weights
    surf = scorer._surface_distances(coords)
    within = surf < CUTOFF
    pair = np.exp(-((surf / 0.5) ** 2)) * w.gauss1
    pair += np.exp(-(((surf - 3.0) / 2.0) ** 2)) * w.gauss2
    pair += np.where(surf < 0.0, surf * surf, 0.0) * w.repulsion
    pair += np.clip(1.5 - surf, 0.0, 1.0) * scorer._hydrophobic_pair * w.hydrophobic
    if w.electrostatic != 0.0:
        pair += np.exp(-((surf / 1.5) ** 2)) * scorer._charge_product * w.electrostatic
    pair_sum = np.where(within, pair, 0.0).reshape(coords.shape[0], -1).sum(axis=1)
    hbond = np.clip(surf / -0.7, 0.0, 1.0) * scorer._hbond_pair
    hbond_sum = np.where(within, hbond, 0.0).max(axis=2).sum(axis=1)
    totals = (pair_sum + w.hbond * hbond_sum) * w.scale
    return totals / (1.0 + w.rotor_penalty * scorer.ligand.num_rotatable_bonds)


def test_batch_scoring_matches_scalar_exactly(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 17)
    batch = scorer.score_coords_batch(coords)
    scalar = np.array([scorer.score_coords(pose) for pose in coords])
    assert np.array_equal(batch, scalar)


def test_batch_scoring_invariant_to_batch_composition(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 13)
    whole = scorer.score_coords_batch(coords)
    # Any slicing of the batch — including after the pair-tile caches have
    # grown to the largest batch — scores each pose identically.
    assert np.array_equal(scorer.score_coords_batch(coords[3:8]), whole[3:8])
    assert np.array_equal(scorer.score_coords_batch(coords[::2]), whole[::2])
    fresh = VinaScoringFunction(reference_record.structure, ligand.centered())
    assert np.array_equal(fresh.score_coords_batch(coords[5:6]), whole[5:6])


@pytest.mark.parametrize("electrostatic", [0.0, 0.5])
def test_batch_scoring_matches_full_matrix_reference(reference_record, ligand, electrostatic):
    weights = ScoringWeights(electrostatic=electrostatic)
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered(), weights=weights)
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 9, seed=2)
    assert np.array_equal(scorer.score_coords_batch(coords), _full_matrix_scores(scorer, coords))


def test_batch_scoring_shape_validation(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    with pytest.raises(DockingError):
        scorer.score_coords_batch(np.zeros((4, 2, 3)))
    with pytest.raises(DockingError):
        scorer.score_coords_batch(np.zeros((ligand.num_atoms, 3)))


# -- pose RMSD bounds ---------------------------------------------------------------------


def test_pose_rmsd_bounds_ordering():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 3))
    b = a + rng.normal(scale=1.0, size=a.shape)
    lb, ub = pose_rmsd_lower(a, b), pose_rmsd_upper(a, b)
    assert 0.0 <= lb <= ub + 1e-9


def test_pose_rmsd_identical_poses_zero():
    a = np.random.default_rng(1).normal(size=(8, 3))
    assert pose_rmsd_upper(a, a) == pytest.approx(0.0)
    assert pose_rmsd_lower(a, a) == pytest.approx(0.0)


# -- search and engine ----------------------------------------------------------------------


def test_monte_carlo_search_returns_sorted_poses(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    search = MonteCarloPoseSearch(scorer, pocket.center)
    poses = search.search(60, np.random.default_rng(0), num_poses=5)
    scores = [p.score for p in poses]
    assert scores == sorted(scores)
    assert 1 <= len(poses) <= 5


def test_docking_engine_end_to_end(reference_record, ligand):
    engine = DockingEngine(num_seeds=2, num_poses=4, mc_steps=60)
    result = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    assert len(result.runs) == 2
    for run in result.runs:
        assert len(run.poses) >= 1
        assert run.poses[0].rmsd_lb == 0.0 and run.poses[0].rmsd_ub == 0.0
        affinities = [p.affinity for p in run.poses]
        assert affinities == sorted(affinities)
    assert result.best_affinity <= result.mean_best_affinity
    assert result.mean_best_affinity < 0.0  # the native-like complex binds favourably
    payload = result.as_dict()
    assert payload["num_runs"] == 2
    assert len(payload["runs"][0]["poses"]) >= 1


def test_docking_engine_deterministic(reference_record, ligand):
    engine = DockingEngine(num_seeds=2, num_poses=3, mc_steps=40)
    r1 = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    r2 = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    assert r1.mean_best_affinity == pytest.approx(r2.mean_best_affinity)


def test_docking_engine_validation():
    with pytest.raises(DockingError):
        DockingEngine(num_seeds=0)


# -- batched walkers ----------------------------------------------------------------------


def test_walker_rngs_single_walker_is_callers_generator():
    rng = np.random.default_rng(5)
    assert walker_rngs(rng, 1) == [rng]
    many = walker_rngs(rng, 4)
    assert many[0] is rng and len(many) == 4


def test_search_batch_matches_scalar(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    search = MonteCarloPoseSearch(scorer, pocket.center)
    batched = search.search(80, np.random.default_rng(3), num_poses=5, batch=True)
    scalar = search.search(80, np.random.default_rng(3), num_poses=5, batch=False)
    assert len(batched) == len(scalar)
    for a, b in zip(batched, scalar):
        assert a.score == b.score
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def test_docking_engine_batch_flag_does_not_change_results(reference_record, ligand):
    on = DockingEngine(num_seeds=2, num_poses=3, mc_steps=40, batch=True)
    off = DockingEngine(num_seeds=2, num_poses=3, mc_steps=40, batch=False)
    r_on = on.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    r_off = off.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    assert r_on.as_dict() == r_off.as_dict()


def test_prepared_dock_replays_identically(reference_record, ligand):
    engine = DockingEngine(num_seeds=3, num_poses=3, mc_steps=40)
    direct = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    prepared = engine.prepare(reference_record.structure, ligand)
    # One preparation serves every seed: replaying it twice changes nothing.
    replay1 = engine.dock_prepared(prepared, "3eax:REF")
    replay2 = engine.dock_prepared(prepared, "3eax:REF")
    assert replay1.as_dict() == direct.as_dict()
    assert replay2.as_dict() == direct.as_dict()


# -- lock-step seeds vs the sequential oracle ------------------------------------------


def _oracle_search(search, steps, rng, num_poses, restarts=3, refine_steps=25):
    """The sequential pose search, frozen: walkers one at a time, then greedy
    refinement of each deduplicated candidate, every pose its own ``score_pose``."""
    walkers = max(1, max(restarts, len(search.initial_rotations) + 1))
    rngs = walker_rngs(rng, walkers)

    def perturb(pose, rng, scale=1.0):
        axis = rng.normal(size=3)
        angle = rng.normal(scale=search.rotation_step * scale)
        rotation = rotation_matrix(axis, angle) @ pose.rotation
        translation = pose.translation + rng.normal(scale=search.translation_step * scale, size=3)
        return Pose(rotation, translation, search.scorer.score_pose(rotation, translation))

    candidates = []
    for walker in range(walkers):
        walker_rng = rngs[walker]
        if walker < len(search.initial_rotations):
            rotation = search.initial_rotations[walker]
            offset = walker_rng.normal(scale=0.5, size=3)
        else:
            rotation = random_rotation(walker_rng)
            offset = walker_rng.normal(scale=search.site_radius / 2.0, size=3)
        translation = search.site_center + offset
        current = Pose(rotation, translation, search.scorer.score_pose(rotation, translation))
        candidates.append(current)
        for _ in range(max(1, steps // walkers)):
            proposal = perturb(current, walker_rng)
            delta = proposal.score - current.score
            if delta <= 0 or walker_rng.random() < np.exp(-delta / search.temperature):
                current = proposal
                candidates.append(current)
    candidates.sort(key=lambda p: p.score)
    selected = []
    for pose in candidates:
        if len(selected) >= num_poses:
            break
        if all(np.linalg.norm(pose.translation - kept.translation) > 1.0 for kept in selected):
            best = pose
            for i in range(refine_steps):
                trial = perturb(best, rng, scale=0.5 / (1.0 + i))
                if trial.score < best.score:
                    best = trial
            selected.append(best)
    selected.sort(key=lambda p: p.score)
    return selected


@pytest.mark.parametrize(
    "restarts, refine_steps, num_poses",
    [(r, k, 5) for r in (1, 3, 8) for k in (0, 1, 25)] + [(3, 25, 1), (8, 1, 1)],
)
def test_search_matches_sequential_oracle(reference_record, ligand, restarts, refine_steps, num_poses):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    search = MonteCarloPoseSearch(scorer, find_pocket(reference_record.structure).center)
    got = search.search(48, np.random.default_rng(11), num_poses, restarts, refine_steps)
    want = _oracle_search(search, 48, np.random.default_rng(11), num_poses, restarts, refine_steps)
    assert len(got) == len(want) <= num_poses
    for a, b in zip(got, want):
        assert a.score == b.score
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def _oracle_dock(engine, prepared, receptor_id):
    """The sequential multi-seed loop, frozen: ``{seed: top poses}``."""
    runs = {}
    for i in range(engine.num_seeds):
        seed = child_seed(engine.master_seed, "docking", receptor_id, i)
        rng = rng_for(seed, "run")
        poses = []
        for search in prepared.searches:
            poses.extend(_oracle_search(search, prepared.steps_per_site, rng, engine.num_poses))
        poses.sort(key=lambda p: p.score)
        runs[seed] = poses[: engine.num_poses]
    return runs


@pytest.fixture(scope="module")
def receptors(reference_record, ligand):
    other = ReferenceStructureGenerator().generate("3ckz", "VKDRS", start_seq_id=149)
    return {
        "3eax": (reference_record, ligand),
        "3ckz": (other, SyntheticLigandGenerator().generate(other)),
    }


@pytest.mark.parametrize("batch", [True, False], ids=["lockstep", "sequential"])
@pytest.mark.parametrize("pdb_id", ["3eax", "3ckz"])
@pytest.mark.parametrize(
    "num_seeds, num_poses, mc_steps",
    [(1, 3, 30), (2, 3, 30), (4, 3, 45), (20, 2, 30), (4, 10, 30)],
    ids=["1-seed", "2-seeds", "4-seeds", "20-seeds", "dedup-short"],
)
def test_docking_matches_sequential_oracle(receptors, pdb_id, batch, num_seeds, num_poses, mc_steps):
    record, lig = receptors[pdb_id]
    receptor_id = f"{pdb_id}:ORACLE"
    engine = DockingEngine(num_seeds=num_seeds, num_poses=num_poses, mc_steps=mc_steps, batch=batch)
    prepared = engine.prepare(record.structure, lig)
    expected = _oracle_dock(engine, prepared, receptor_id)

    captured = {}
    build_run = engine._build_run

    def capture(seed, poses, ligand):
        captured[seed] = poses
        return build_run(seed, poses, ligand)

    engine._build_run = capture
    result = engine.dock_prepared(prepared, receptor_id, ligand_name=lig.name)
    engine._build_run = build_run
    reference = DockingResult(
        receptor_id=receptor_id,
        ligand_name=lig.name,
        runs=[engine._build_run(seed, poses, prepared.ligand) for seed, poses in expected.items()],
    )
    assert result.as_dict() == reference.as_dict()
    assert captured.keys() == expected.keys()
    for seed, poses in expected.items():
        assert len(captured[seed]) == len(poses)
        for got, want in zip(captured[seed], poses):
            assert got.score == want.score
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


def _counted(coroutine, counts, index):
    """Forward a scoring coroutine, counting the requests it makes."""
    request = next(coroutine)
    while True:
        counts[index] += 1
        try:
            request = coroutine.send((yield request))
        except StopIteration as stop:
            return stop.value


def test_lockstep_makes_one_scoring_call_per_round(reference_record, ligand, monkeypatch):
    # Few candidates and a large pose budget: dedup keeps a per-seed number
    # of poses, so seeds make different numbers of requests.
    engine = DockingEngine(num_seeds=6, num_poses=10, mc_steps=30)
    prepared = engine.prepare(reference_record.structure, ligand)
    requests = [0] * engine.num_seeds
    seed_run = engine._seed_run
    monkeypatch.setattr(
        engine, "_seed_run", lambda p, r, i: _counted(seed_run(p, r, i), requests, i)
    )
    calls = []
    score_batch = prepared.scorer.score_coords_batch
    monkeypatch.setattr(
        prepared.scorer, "score_coords_batch", lambda coords: calls.append(len(coords)) or score_batch(coords)
    )
    monkeypatch.setattr(prepared.scorer, "score_coords", lambda coords: pytest.fail("per-pose call"))
    engine.dock_prepared(prepared, "3eax:REF")
    assert len(set(requests)) > 1  # seeds finish in different rounds
    assert len(calls) == max(requests)
    # Every round batches the requests of the seeds still running.
    assert calls[0] > calls[-1]


@pytest.mark.parametrize("batch", [True, False], ids=["lockstep", "sequential"])
def test_run_lockstep_hands_back_mixed_size_replies(reference_record, ligand, batch):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    poses = _pose_batch(ligand, find_pocket(reference_record.structure).center, 8, seed=4)

    def requester(sizes):
        exchanged, start = [], 0
        for size in sizes:
            request = np.take(poses, range(start, start + size), axis=0, mode="wrap")
            exchanged.append((request, (yield request)))
            start = (start + size) % len(poses)
        return exchanged

    # Rounds mix one-pose and eight-pose requests, and coroutines end apart.
    plans = [[1, 8, 1], [8, 1], [1, 1, 1, 8], [8]]
    results = run_lockstep([requester(sizes) for sizes in plans], scorer, batch)
    for sizes, exchanged in zip(plans, results):
        assert [len(reply) for _, reply in exchanged] == sizes
        for request, reply in exchanged:
            assert np.array_equal(reply, [scorer.score_coords(pose) for pose in request])


def test_lockstep_seed_error_propagates_and_closes_the_other_seeds(reference_record, ligand):
    closed = []

    class FailingEngine(DockingEngine):
        def _seed_run(self, prepared, receptor_id, index):
            try:
                yield prepared.ligand.coords[None]
                if index == 2:
                    raise DockingError(f"seed {index} failed")
                yield prepared.ligand.coords[None]
                yield prepared.ligand.coords[None]
            except GeneratorExit:
                closed.append(index)
                raise

    engine = FailingEngine(num_seeds=4, num_poses=2, mc_steps=30)
    prepared = engine.prepare(reference_record.structure, ligand)
    with pytest.raises(DockingError, match="seed 2 failed"):
        engine.dock_prepared(prepared, "3eax:REF")
    assert sorted(closed) == [0, 1, 3]
