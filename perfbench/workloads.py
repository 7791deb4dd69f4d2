"""The three benchmark workloads.

Each workload derives every input from one seed, builds its inputs in
`setup`, does the measured work in `region`, and checks that work's outputs
in `check`, outside the timed region.  `probe` repeats, once, public calls
that the region only makes from inside other calls (inside `fit`, `train` or
`execute_policy`), so the traced run can time them; it is never timed as part
of the region.  All package calls go through `api`, so the same code runs
with tracing on or off.

Seed k selects the inputs: the default k = 0 gives the acceptance-test seeds
(demos 42, training 7, resets 5000 for the pointmass pipeline; linear demos
9 and Van der Pol demos 21 for the fits), and k shifts every one of them.
"""

from __future__ import annotations

import importlib
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from koopmanix import DemonstrationSet, LiftingSpec, TrainConfig, dimension, lift_matrix, perturb_params, success_rate
from koopmanix.envs import default_criterion, default_expert, linear_env_random, pointmass_env, vanderpol_env
from spans import PUBLIC


def bind_api(calls, replace: dict | None = None) -> SimpleNamespace:
    """Wrapped public functions, by bare name.  `replace` swaps in stand-ins
    (by qualified name) so a self-test can corrupt an output."""
    replace = replace or {}
    api = SimpleNamespace()
    for qual in PUBLIC:
        module, name = qual.split(".")
        fn = replace.get(qual) or getattr(importlib.import_module(f"koopmanix.{module}"), name)
        setattr(api, name, calls.wrap(qual, fn))

    def policy(controller):
        # traced: hand execute_policy a callable so controller.forward gets
        # its own span and execute_policy's self time excludes it
        if not calls.tracing:
            return controller
        return lambda x_now, x_next: api.forward(controller, x_now, x_next)

    api.policy = policy
    return api


class Checks:
    """Output checks; each one is an operation that passes or fails."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def _bits(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.int64)


def _same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


def _same_demos(a: DemonstrationSet, b: DemonstrationSet) -> bool:
    if a.layout != b.layout or a.n_demos != b.n_demos:
        return False
    for ta, tb in zip(a.trajectories, b.trajectories):
        if ta.horizon != tb.horizon or (ta.torques is None) != (tb.torques is None):
            return False
        if not _same_bits(np.stack([s.full for s in ta.states]), np.stack([s.full for s in tb.states])):
            return False
        if ta.torques is not None and not _same_bits(np.stack(ta.torques), np.stack(tb.torques)):
            return False
    return True


def _controller_arrays(ctrl):
    return ctrl.weights + ctrl.biases + (ctrl.input_mean, ctrl.input_std)


def _same_controller(a, b) -> bool:
    return a.layer_sizes == b.layer_sizes and all(
        _same_bits(x, y) for x, y in zip(_controller_arrays(a), _controller_arrays(b))
    )


def _finite_trajectory(traj) -> bool:
    states = np.stack([s.full for s in traj.states])
    return bool(np.isfinite(states).all() and np.isfinite(np.stack(traj.torques)).all())


def _episodes(api, model, controller, env, criterion, root_seed, count, horizon, distribution, out):
    """Run `count` closed-loop episodes one at a time; time each one."""
    rng = np.random.default_rng(root_seed)
    policy = api.policy(controller)
    wins = 0
    for s in rng.integers(2**62, size=count):
        t0 = time.perf_counter()
        init = api.reset(env, int(s), distribution)
        traj = api.execute_policy(model, policy, env, init, horizon)
        wins += api.evaluate_success(traj, criterion).success
        out["episode_s"].append(time.perf_counter() - t0)
        out["inits"].append(init)
        out["trajectories"].append(traj)
    return 100.0 * wins / count


def _fit_probes(api, demos, spec) -> None:
    """Time the stages `fit` runs internally, once each, on the same inputs."""
    api.validate(demos)
    raws = [np.stack([s.full for s in traj.states]) for traj in demos.trajectories]
    for raw in raws:
        api.lift_matrix(spec, raw)
    acc = api.accumulate(demos, spec)
    api.solve_koopman(acc.A, acc.G)


def _rollout_probes(api, model, inits, horizon) -> None:
    for init in inits:
        api.rollout(model, init.composite, horizon)


class Workload:
    SIZES: dict = {}
    BASE_SEEDS: dict = {}
    KEEP: tuple = ()  # region outputs that `metrics` reads, kept after a pass
    SCALE_WALL = True  # wall_s is scaled by the host's speed (clock.py)

    def __init__(self, seed: int, **sizes):
        unknown = set(sizes) - set(self.SIZES)
        if unknown:
            raise ValueError(f"unknown sizes for {self.name}: {sorted(unknown)}")
        self.sizes = {**self.SIZES, **sizes}
        self.seeds = {key: base + seed for key, base in self.BASE_SEEDS.items()}


class Pipeline(Workload):
    """Acceptance test 07 end to end: demos, fit, train, closed loop, save/load."""

    name = "pipeline"
    SIZES = {"n_demos": 100, "horizon": 100, "iterations": 500, "batch": 256, "episodes": 100}
    BASE_SEEDS = {"demos": 42, "train": 7, "resets": 5000}
    KEEP = ("episode_s", "closed_loop_s", "success_pct", "history")
    # 88% of a pass is one `train` call of 15-19 s.  The speed kernel runs
    # only between calls, so its samples come from the other 2 s of the
    # pass, and the host's fast phases come and go within seconds.  Over ten
    # seeds scaling widened the wall_s spread from 8.6% to 17% (README), so
    # pipeline's wall_s is its raw wall time.
    SCALE_WALL = False

    def setup(self, api):
        env = pointmass_env()
        return {
            "env": env,
            "expert": default_expert(env),
            "criterion": default_criterion(env),
            "spec": LiftingSpec("kodex-polynomial", env.layout),
        }

    def region(self, api, inp, work: Path):
        z = self.sizes
        env = inp["env"]
        demos = api.generate_demos(env, inp["expert"], z["n_demos"], z["horizon"], seed=self.seeds["demos"])
        model = api.fit(demos, inp["spec"])
        config = TrainConfig(learning_rate=1e-3, iterations=z["iterations"], batch=z["batch"], seed=self.seeds["train"])
        controller, history = api.train(demos, config)
        out = {"demos": demos, "model": model, "controller": controller, "history": history,
               "episode_s": [], "inits": [], "trajectories": []}
        t0 = time.perf_counter()
        out["success_pct"] = _episodes(api, model, controller, env, inp["criterion"], self.seeds["resets"],
                                       z["episodes"], z["horizon"], "in", out)
        out["closed_loop_s"] = time.perf_counter() - t0
        out["loaded_model"] = api.load_model(api.save_model(model, work / "model.json"))
        out["loaded_controller"] = api.load_controller(api.save_controller(controller, work / "controller.json"))
        return out

    def check(self, inp, out, checks: Checks) -> None:
        expert = success_rate(out["demos"].trajectories, inp["criterion"])
        checks.add("pipeline: expert success is 100%", expert == 100.0, f"{expert:.1f}%")
        checks.add("pipeline: closed-loop success_pct >= 80", out["success_pct"] >= 80.0,
                   f"{out['success_pct']:.1f}%")
        ctrl = out["controller"]
        finite = all(np.isfinite(a).all() for a in (out["model"].K, out["history"], *_controller_arrays(ctrl)))
        checks.add("pipeline: K, weights and loss history are finite", finite)
        checks.add("pipeline: loaded model equals saved bit for bit",
                   _same_bits(out["loaded_model"].K, out["model"].K)
                   and out["loaded_model"].spec == out["model"].spec)
        checks.add("pipeline: loaded controller equals saved bit for bit",
                   _same_controller(out["loaded_controller"], ctrl))

    def probe(self, api, inp, out) -> None:
        demos = out["demos"]
        _fit_probes(api, demos, inp["spec"])
        triples = api.supervision(demos)
        api.loss(out["controller"], triples)
        _rollout_probes(api, out["model"], out["inits"], self.sizes["horizon"])

    def metrics(self, outs) -> dict:
        episodes = sum(len(o["episode_s"]) for o in outs)
        return {
            "episodes_per_s": (episodes / sum(o["closed_loop_s"] for o in outs), "1/s"),
            "success_pct": (outs[0]["success_pct"], "%"),
            "train_loss_final": (float(outs[0]["history"][-1]), "loss"),
        }


class Operator(Workload):
    """Fitting and persistence at p = 102 and on Van der Pol; no controller."""

    name = "operator"
    SIZES = {"n_demos": 200, "horizon": 100, "linear_dim": 12, "counts": (50, 100, 200)}
    BASE_SEEDS = {"linear_env": 5, "linear_demos": 9, "vanderpol_demos": 21}
    KEEP = ("lift_err_ratio",)

    def setup(self, api):
        z = self.sizes
        lin_env = linear_env_random(z["linear_dim"], spectral_radius=0.9, seed=self.seeds["linear_env"])
        vdp_env = vanderpol_env()
        return {
            "demos": {
                "linear": api.generate_demos(lin_env, default_expert(lin_env), z["n_demos"], z["horizon"],
                                             seed=self.seeds["linear_demos"]),
                "vanderpol": api.generate_demos(vdp_env, default_expert(vdp_env), z["n_demos"], z["horizon"],
                                                seed=self.seeds["vanderpol_demos"]),
            },
            "specs": {
                (env_key, kind): LiftingSpec(kind, env.layout)
                for env_key, env in (("linear", lin_env), ("vanderpol", vdp_env))
                for kind in ("kodex-polynomial", "identity")
            },
            "oracle": {},
        }

    def region(self, api, inp, work: Path):
        specs = inp["specs"]
        loaded = {}
        for key, demos in inp["demos"].items():
            loaded[key] = api.load_demos(api.save_demos(demos, work / key))
        lin, vdp = loaded["linear"], loaded["vanderpol"]
        fits = {}
        for count in self.sizes["counts"]:
            sub = DemonstrationSet(lin.layout, lin.trajectories[:count])
            for kind in ("kodex-polynomial", "identity"):
                fits[kind, count] = api.fit(sub, specs["linear", kind])
        vdp_kodex = api.fit(vdp, specs["vanderpol", "kodex-polynomial"])
        vdp_identity = api.fit(vdp, specs["vanderpol", "identity"])
        err_kodex = api.prediction_errors(vdp_kodex, vdp)
        err_identity = api.prediction_errors(vdp_identity, vdp)
        saved = {"linear": fits["kodex-polynomial", self.sizes["counts"][-1]], "vanderpol": vdp_kodex}
        reloaded = {key: api.load_model(api.save_model(model, work / f"{key}_model.json"))
                    for key, model in saved.items()}
        for key, model in saved.items():
            for traj in loaded[key].trajectories:
                api.rollout(model, traj.states[0], traj.horizon)
        return {"loaded": loaded, "fits": fits, "saved": saved, "reloaded": reloaded,
                "lift_err_ratio": float(np.mean(err_kodex)) / float(np.mean(err_identity))}

    def _oracle(self, inp, count):
        """Solution of the stacked weighted least-squares problem by QR (test
        03), factored one trajectory at a time to keep memory small."""
        if count not in inp["oracle"]:
            spec = inp["specs"]["linear", "kodex-polynomial"]
            p = dimension(spec)
            R, qty = np.zeros((0, p)), np.zeros((0, p))
            for traj in inp["demos"]["linear"].trajectories[:count]:
                phi = lift_matrix(spec, np.stack([s.full for s in traj.states]))
                w = np.sqrt(1.0 / (count * (traj.horizon - 1)))
                Q, R = np.linalg.qr(np.vstack([R, w * phi[:-1]]))
                qty = Q.T @ np.vstack([qty, w * phi[1:]])
            inp["oracle"][count] = np.linalg.solve(R, qty).T
        return inp["oracle"][count]

    def check(self, inp, out, checks: Checks) -> None:
        for key, demos in inp["demos"].items():
            checks.add(f"operator: loaded {key} demos equal saved bit for bit", _same_demos(out["loaded"][key], demos))
        for key, model in out["saved"].items():
            checks.add(f"operator: loaded {key} K equals saved K", _same_bits(out["reloaded"][key].K, model.K))
        for count in self.sizes["counts"]:
            gap = float(np.linalg.norm(out["fits"]["kodex-polynomial", count].K - self._oracle(inp, count)))
            checks.add(f"operator: linear kodex K at N={count} matches the QR oracle to 1e-8", gap < 1e-8,
                       f"|K-K_qr|_F={gap:.1e}")
        ratio = out["lift_err_ratio"]
        checks.add("operator: lift_err_ratio < 0.5", ratio < 0.5, f"{ratio:.3f}")

    def probe(self, api, inp, out) -> None:
        _fit_probes(api, out["loaded"]["linear"], inp["specs"]["linear", "kodex-polynomial"])

    def metrics(self, outs) -> dict:
        return {"lift_err_ratio": (outs[0]["lift_err_ratio"], "ratio")}


class ClosedLoop(Workload):
    """Single-episode closed-loop throughput, plus the retune demo step."""

    name = "closed-loop"
    # the controller is trained briefly: a closed-loop step costs the same
    # however well the net was trained.  80 iterations is about the shortest
    # schedule whose episodes reach the ball and carry it (40 do not), so the
    # carried-ball branch of the plant runs as it does for a trained net.
    SIZES = {"n_demos": 100, "horizon": 100, "iterations": 80, "batch": 256, "episodes": 100}
    BASE_SEEDS = {"demos": 42, "train": 7, "resets_in": 5000, "resets_out": 6000,
                  "resets_heavy": 5000, "heavy_demos": 43}
    KEEP = ("episode_s", "closed_loop_s", "success")

    def setup(self, api):
        z = self.sizes
        env = pointmass_env()
        expert = default_expert(env)
        demos = api.generate_demos(env, expert, z["n_demos"], z["horizon"], seed=self.seeds["demos"])
        model = api.fit(demos, LiftingSpec("kodex-polynomial", env.layout))
        config = TrainConfig(learning_rate=1e-3, iterations=z["iterations"], batch=z["batch"], seed=self.seeds["train"])
        controller, _ = api.train(demos, config)
        return {"env": env, "heavy": perturb_params(env, "heavy-hand"), "expert": expert,
                "criterion": default_criterion(env), "model": model, "controller": controller}

    def region(self, api, inp, work: Path):
        z = self.sizes
        out = {"episode_s": [], "inits": [], "trajectories": [], "success": {}}
        t0 = time.perf_counter()
        for label, env, distribution, seed in (
            ("in", inp["env"], "in", self.seeds["resets_in"]),
            ("out", inp["env"], "out", self.seeds["resets_out"]),
            ("heavy-hand", inp["heavy"], "in", self.seeds["resets_heavy"]),
        ):
            out["success"][label] = _episodes(api, inp["model"], inp["controller"], env, inp["criterion"], seed,
                                              z["episodes"], z["horizon"], distribution, out)
        out["closed_loop_s"] = time.perf_counter() - t0
        out["heavy_demos"] = api.generate_demos(inp["heavy"], inp["expert"], z["n_demos"], z["horizon"],
                                                seed=self.seeds["heavy_demos"])
        return out

    def check(self, inp, out, checks: Checks) -> None:
        finite = all(_finite_trajectory(t) for t in out["trajectories"])
        checks.add("closed-loop: all states and torques are finite", finite)
        expert = success_rate(out["heavy_demos"].trajectories, inp["criterion"])
        checks.add("closed-loop: heavy-hand expert success is 100%", expert == 100.0, f"{expert:.1f}%")

    def probe(self, api, inp, out) -> None:
        _rollout_probes(api, inp["model"], out["inits"], self.sizes["horizon"])

    def metrics(self, outs) -> dict:
        episode_ms = [1e3 * t for o in outs for t in o["episode_s"]]
        deciles = statistics.quantiles(episode_ms, n=10, method="inclusive")
        return {
            "episodes_per_s": (len(episode_ms) / sum(o["closed_loop_s"] for o in outs), "1/s"),
            "episode_ms_p50": (statistics.median(episode_ms), "ms"),
            "episode_ms_p90": (deciles[8], "ms"),
            "episode_samples": (len(episode_ms), "count"),
            "success_pct": (outs[0]["success"]["in"], "%"),
        }


WORKLOADS = {w.name: w for w in (Pipeline, Operator, ClosedLoop)}
