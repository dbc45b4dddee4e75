"""Monte-Carlo rigid-body pose search with local refinement.

AutoDock Vina explores ligand poses with an iterated local-search /
Metropolis scheme.  For rigid ligands the pose space is 6-dimensional
(rotation + translation); :class:`MonteCarloPoseSearch` runs a Metropolis
random walk in that space from several restarts, keeps the best-scoring
distinct poses it visits, and polishes each of them with a short greedy local
refinement.  Every run is fully determined by its seed, which is how the
paper's per-seed docking reproducibility is achieved.

Coroutine protocol
------------------
:meth:`MonteCarloPoseSearch.search_coroutine` never scores anything itself:
it yields ``(P, A, 3)`` pose coordinates, is sent their ``(P,)`` scores, and
returns the sorted poses.  Its restarts are walkers on independent RNG
streams (:func:`walker_rngs`) advancing in lock-step, one request per
Metropolis step; each refinement step requests one pose.  :func:`run_lockstep`
joins the pending requests of many coroutines into one scoring call per round.
A multi-seed dock puts its *seeds* in lock-step, not its sites: a seed's sites
share one RNG, from which walker 0's Metropolis tests and the refinement draw
a data-dependent number of values, so site ``k + 1`` cannot start before site
``k`` ends.  A score does not depend on which poses share its batch, so
lock-step driving is bit-identical to the one-seed-at-a-time,
one-pose-per-call reference path (``batch=False``).

Proposals are built in batches.  A Metropolis step draws each walker's
seven normals from its own stream, builds every rotation with one
:func:`~repro.bio.geometry.rotation_matrices` call and places every pose
with one product; a refinement chain draws and builds all its perturbations
up front.  The batched formulas keep the per-element operation order, so
every proposal is bit-identical to building one pose at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.bio.geometry import random_rotation, rotation_matrices, rotation_matrix
from repro.docking.ligand import Ligand
from repro.docking.scoring import VinaScoringFunction
from repro.exceptions import DockingError


@dataclass
class Pose:
    """One candidate ligand pose."""

    rotation: np.ndarray
    translation: np.ndarray
    score: float

    def coordinates(self, ligand: Ligand) -> np.ndarray:
        """Ligand atom coordinates in this pose."""
        return ligand.transformed(self.rotation, self.translation)


def walker_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Independent per-walker RNG substreams.

    Walker 0 is handed the caller's generator itself; the remaining walkers
    get spawned children.  Spawning derives fresh child seed sequences without
    consuming any draws from the parent stream, so walker 0's sequence — and
    with it the single-walker search output — is unchanged by how many other
    walkers exist.
    """
    if count <= 1:
        return [rng]
    return [rng, *rng.spawn(count - 1)]


def run_lockstep(coroutines: list[Generator], scorer: VinaScoringFunction, batch: bool = True) -> list:
    """Drive scoring coroutines and return their results in order.

    With ``batch`` the coroutines advance together, and each round scores
    every pending request in one ``score_coords_batch`` call.  Without it (the
    reference path) they run one after another, one ``score_coords`` call per
    pose.  If a coroutine raises, the error propagates and all are closed.
    """
    results: list = [None] * len(coroutines)
    indices = range(len(coroutines))
    try:
        for group in [indices] if batch else [[index] for index in indices]:
            replies: dict = dict.fromkeys(group)
            while replies:
                requests = {}
                for index, reply in replies.items():
                    try:
                        requests[index] = coroutines[index].send(reply)
                    except StopIteration as stop:
                        results[index] = stop.value
                if not requests:
                    break
                coords = np.concatenate(list(requests.values()))
                if batch:
                    scores = scorer.score_coords_batch(coords)
                else:
                    scores = np.array([scorer.score_coords(pose) for pose in coords])
                replies, start = {}, 0
                for index, request in requests.items():
                    replies[index] = scores[start : start + len(request)]
                    start += len(request)
    finally:
        for coroutine in coroutines:
            coroutine.close()
    return results


class MonteCarloPoseSearch:
    """Metropolis pose search around a binding-site centre."""

    def __init__(
        self,
        scorer: VinaScoringFunction,
        site_center: np.ndarray,
        site_radius: float = 6.0,
        temperature: float = 1.2,
        translation_step: float = 1.0,
        rotation_step: float = 0.5,
        initial_rotations: list[np.ndarray] | None = None,
    ):
        if site_radius <= 0:
            raise DockingError(f"site radius must be positive, got {site_radius}")
        self.scorer = scorer
        self.site_center = np.asarray(site_center, dtype=float).reshape(3)
        self.site_radius = float(site_radius)
        self.temperature = float(temperature)
        self.translation_step = float(translation_step)
        self.rotation_step = float(rotation_step)
        # Deterministic starting orientations tried before random restarts
        # (identity first: ligand and receptor frames are both pocket-derived,
        # so the near-native orientation is always worth probing).
        if initial_rotations is None:
            initial_rotations = [np.eye(3)]
            for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])):
                initial_rotations.append(rotation_matrix(axis, np.pi))
        self.initial_rotations = [np.asarray(r, dtype=float) for r in initial_rotations]

    # -- proposals ---------------------------------------------------------------

    def _initial_state(
        self, walker: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Starting (rotation, translation) of one walker (scoring separate)."""
        if walker < len(self.initial_rotations):
            rotation = self.initial_rotations[walker]
            offset = rng.normal(scale=0.5, size=3)
        else:
            rotation = random_rotation(rng)
            offset = rng.normal(scale=self.site_radius / 2.0, size=3)
        return rotation, self.site_center + offset

    def _perturbations(
        self, normals: np.ndarray, scale: float | np.ndarray = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Perturbation rotations ``(N, 3, 3)`` and offsets ``(N, 3)``.

        ``normals`` is ``(N, 7)`` standard normals, each row one proposal's
        draws in stream order: rotation axis (3), angle (1), translation (3).
        ``scale`` (scalar or ``(N,)``) shrinks the angle and translation
        steps.  Scaling computes ``0.0 + sigma * z`` exactly as
        ``rng.normal(scale=sigma)`` does, so the proposals are the ones a
        draw-per-parameter loop would make.
        """
        scale = np.asarray(scale, dtype=float).reshape(-1, 1)
        angles = 0.0 + (self.rotation_step * scale[:, 0]) * normals[:, 3]
        offsets = 0.0 + (self.translation_step * scale) * normals[:, 4:]
        return rotation_matrices(0.0 + normals[:, :3], angles), offsets

    # -- search ------------------------------------------------------------------

    def search_coroutine(
        self,
        steps: int,
        rng: np.random.Generator,
        num_poses: int = 10,
        restarts: int = 3,
        refine_steps: int = 25,
    ) -> Generator[np.ndarray, np.ndarray, list[Pose]]:
        """The search as a scoring coroutine (see the module docstring).

        Poses are deduplicated on their translation (two poses closer than
        1.0 Å are considered the same binding mode and only the better one is
        kept), mirroring how Vina clusters its output modes.
        """
        if steps <= 0:
            raise DockingError(f"steps must be positive, got {steps}")
        walkers = max(restarts, len(self.initial_rotations) + 1)
        rngs = walker_rngs(rng, walkers)
        transformed = self.scorer.ligand.transformed

        # Metropolis walk: one request per step holds every walker's state;
        # each step's rotations and placements are built in one pass.
        states = [self._initial_state(walker, rngs[walker]) for walker in range(walkers)]
        rotations = np.stack([r for r, _ in states])
        translations = np.stack([t for _, t in states])
        current = (yield transformed(rotations, translations)).tolist()
        per_walker = [[Pose(r, t, score)] for (r, t), score in zip(states, current)]
        normals = np.empty((walkers, 7))
        for _ in range(max(1, steps // walkers)):
            for walker, walker_rng in enumerate(rngs):
                walker_rng.standard_normal(out=normals[walker])
            turns, offsets = self._perturbations(normals)
            proposed_rotations = turns @ rotations
            proposed_translations = translations + offsets
            scores = yield transformed(proposed_rotations, proposed_translations)
            for walker, score in enumerate(scores.tolist()):
                # Metropolis test: a uniform is drawn only for uphill moves.
                delta = score - current[walker]
                if delta <= 0 or rngs[walker].random() < np.exp(-delta / self.temperature):
                    current[walker] = score
                    rotations[walker] = proposed_rotations[walker]
                    translations[walker] = proposed_translations[walker]
                    per_walker[walker].append(
                        Pose(proposed_rotations[walker], proposed_translations[walker], score)
                    )

        # Keep the best candidates (walker-major order, stable sort),
        # deduplicated by binding mode, each polished by greedy refinement
        # with a shrinking step on the caller's generator.  A refinement
        # step draws a fixed 7 normals whatever the scores, so each pose's
        # whole chain of perturbations is drawn and built up front.
        candidates = sorted((p for poses in per_walker for p in poses), key=lambda p: p.score)
        kept = np.empty((max(0, num_poses), 3))
        selected: list[Pose] = []
        refine_scales = 0.5 / (1.0 + np.arange(max(0, refine_steps)))
        for pose in candidates:
            if len(selected) >= num_poses:
                break
            gaps = pose.translation - kept[: len(selected)]
            if np.all(np.sqrt(np.vecdot(gaps, gaps)) > 1.0):
                best = pose
                normals = rng.standard_normal((len(refine_scales), 7))
                turns, offsets = self._perturbations(normals, refine_scales)
                for turn, offset in zip(turns, offsets):
                    r = turn @ best.rotation
                    t = best.translation + offset
                    (score,) = yield transformed(r, t)[None]
                    if score < best.score:
                        best = Pose(r, t, float(score))
                kept[len(selected)] = best.translation
                selected.append(best)
        if not selected:
            raise DockingError("pose search produced no candidates")
        selected.sort(key=lambda p: p.score)
        return selected

    def search(
        self,
        steps: int,
        rng: np.random.Generator,
        num_poses: int = 10,
        restarts: int = 3,
        refine_steps: int = 25,
        batch: bool = True,
    ) -> list[Pose]:
        """Run the search and return the best ``num_poses`` distinct poses.

        ``batch`` scores each request in one batched call instead of one
        call per pose; it changes wall time only, never the returned poses.
        """
        coroutine = self.search_coroutine(steps, rng, num_poses, restarts, refine_steps)
        return run_lockstep([coroutine], self.scorer, batch)[0]
