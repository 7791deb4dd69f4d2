"""File formats: exact float round trips, ordering tags, error positions."""

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    DemonstrationSet,
    KoopmanModel,
    LiftingSpec,
    PersistError,
    StateLayout,
    Trajectory,
    load_controller,
    load_demos,
    load_manifest,
    load_model,
    save_controller,
    save_demos,
    save_model,
)
from koopmanix import persist
from koopmanix.controller import ControllerModel, forward, init
from koopmanix.koopman import FitMeta
from koopmanix.persist import _read_trajectory, format_float
from koopmanix.statespace import _adopt

FIXTURES = Path(__file__).parent / "fixtures"
LAYOUT_1D = StateLayout(n=1, m=0, a=1)

# values with no short decimal representation, at the format's edge cases
AWKWARD = [
    5e-324,  # smallest subnormal
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    0.0,
    -0.0,
    1.0 / 3.0,
    0.1,
    -1e308,
    1.7976931348623157e308,  # largest finite double
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _random_doubles(rng, count: int) -> list[float]:
    """Finite doubles drawn uniformly over bit patterns, so every exponent shows up."""
    values = []
    while len(values) < count:
        raw = rng.integers(-(2**63), 2**63, size=256, dtype=np.int64).view(np.float64)
        values.extend(raw[np.isfinite(raw)].tolist())
    return values[:count]


def _mini_manifest(directory: Path, a: int = 1, names=("traj_0000.csv",)) -> Path:
    manifest = {
        "schema": 1,
        "layout": {"n": 1, "m": 0, "a": a, "robot_names": None, "object_names": None},
        "trajectories": list(names),
        "env": None,
        "seed": None,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _rewrite(path: Path, mutate) -> Path:
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


# ---- hand-written fixtures pin the formats ----


def test_fixture_demos_load():
    demos = load_demos(FIXTURES / "demo_set" / "manifest.json")
    assert demos.layout == LAYOUT_1D
    (traj,) = demos.trajectories
    assert traj.horizon == 2
    assert traj.states[0].x_r[0] == 0.5
    assert traj.states[1].x_r[0] == 1.5
    assert len(traj.torques) == 1
    assert traj.torques[0][0] == -1.25


def test_fixture_demos_rewrite_is_byte_identical(tmp_path):
    demos = load_demos(FIXTURES / "demo_set" / "manifest.json")
    manifest = load_manifest(FIXTURES / "demo_set" / "manifest.json")
    save_demos(demos, tmp_path, env=manifest["env"], seed=manifest["seed"])
    for name in ("manifest.json", "traj_0000.csv"):
        want = (FIXTURES / "demo_set" / name).read_text()
        assert (tmp_path / name).read_text() == want


def test_fixture_model_load_and_rewrite(tmp_path):
    model = load_model(FIXTURES / "model.json")
    assert model.spec.kind == "identity"
    assert np.array_equal(model.K, [[2.0]])
    assert model.fit_meta is None
    save_model(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text() == (FIXTURES / "model.json").read_text()


def test_fixture_controller_load_and_rewrite(tmp_path):
    ctrl = load_controller(FIXTURES / "controller.json")
    assert ctrl.layer_sizes == (1, 1)
    assert forward(ctrl, [2.0], []) == 7.0  # 3 * 2 + 1, single layer is linear
    save_controller(ctrl, tmp_path / "controller.json")
    want = (FIXTURES / "controller.json").read_text()
    assert (tmp_path / "controller.json").read_text() == want


# ---- round trips are bit-exact ----


def test_demo_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(0)
    layout = StateLayout(n=2, m=1, a=2)
    pool = np.concatenate([rng.normal(size=50), AWKWARD])
    trajs = []
    for horizon in (4, 7, 5):
        states = tuple(
            CompositeState(rng.choice(pool, size=2), rng.choice(pool, size=1))
            for _ in range(horizon)
        )
        taus = tuple(rng.choice(pool, size=2) for _ in range(horizon - 1))
        trajs.append(Trajectory(states, taus))
    demos = DemonstrationSet(layout, tuple(trajs))

    save_demos(demos, tmp_path, seed=3)
    back = load_demos(tmp_path / "manifest.json")
    assert back.layout == layout
    for got, want in zip(back.trajectories, demos.trajectories):
        for sg, sw in zip(got.states, want.states):
            assert np.array_equal(_bits(sg.full), _bits(sw.full))
        for tg, tw in zip(got.torques, want.torques):
            assert np.array_equal(_bits(tg), _bits(tw))


def test_torqueless_round_trip(tmp_path):
    states = tuple(CompositeState([float(t)], []) for t in range(3))
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(states),))
    save_demos(demos, tmp_path)
    back = load_demos(tmp_path / "manifest.json")
    assert back.trajectories[0].torques is None


def test_thousand_random_doubles_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    values = np.array(_random_doubles(rng, 1000 - len(AWKWARD)) + AWKWARD)
    states = tuple(CompositeState([v], []) for v in values)
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(states),))

    save_demos(demos, tmp_path)
    back = load_demos(tmp_path / "manifest.json")
    got = np.array([s.x_r[0] for s in back.trajectories[0].states])
    assert np.array_equal(_bits(got), _bits(values))


def test_manifest_carries_env_and_seed(tmp_path):
    states = tuple(CompositeState([float(t)], []) for t in range(2))
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(states),))
    env = {"kind": "pendulum", "dt": 0.05}
    save_demos(demos, tmp_path, env=env, seed=9)
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["env"] == env
    assert manifest["seed"] == 9


def test_model_round_trip_with_meta(tmp_path):
    layout = StateLayout(n=2, m=1, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    rng = np.random.default_rng(5)
    from koopmanix import dimension

    p = dimension(spec)
    meta = FitMeta(n_demos=3, n_pairs=12, wall_time_s=0.125, rank=p, cond=7.5)
    model = KoopmanModel(rng.normal(size=(p, p)), spec, layout, meta)
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    assert np.array_equal(_bits(back.K.ravel()), _bits(model.K.ravel()))
    assert back.spec == spec
    assert back.fit_meta == meta


def test_model_round_trip_infinite_condition(tmp_path):
    meta = FitMeta(n_demos=1, n_pairs=1, wall_time_s=0.0, rank=0, cond=math.inf)
    model = KoopmanModel(np.zeros((1, 1)), LiftingSpec("identity", LAYOUT_1D), LAYOUT_1D, meta)
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json").fit_meta.cond == math.inf


@pytest.mark.parametrize("fields, message", [
    ({"rank": -3}, "rank must be >= 0, got -3"),
    ({"n_demos": 1.5}, "n_demos must be an integer, got 1.5"),
    ({"wall_time_s": math.nan}, "wall_time_s must be finite, got nan"),
    ({"wall_time_s": np.float32("nan")}, "wall_time_s must be finite, got nan"),
    ({"wall_time_s": np.float16("-inf")}, "wall_time_s must be finite, got -inf"),
    ({"cond": math.nan}, "cond must be finite, got nan"),
    ({"cond": -math.inf}, "cond must be finite, got -inf"),
], ids=["rank-negative", "n-demos-float", "wall-time-nan", "wall-time-float32-nan", "wall-time-float16-inf",
        "cond-nan", "cond-minus-infinity"])
def test_save_model_refuses_the_fit_meta_load_refuses(tmp_path, fields, message):
    # FitMeta refuses these when it is built, with load's words, so save_model is never given them
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FitMeta(**{"n_demos": 1, "n_pairs": 1, "wall_time_s": 0.0, "rank": 1, "cond": 1.0} | fields)
    assert list(tmp_path.iterdir()) == []


# json cannot write a numpy integer, so the layout and fit_meta store Python ints
NUMPY_LAYOUT = StateLayout(n=np.int64(2), m=np.int64(0), a=np.int64(1))


def test_demos_with_numpy_integer_layout_sizes_round_trip(tmp_path):
    traj = Trajectory.from_arrays(np.arange(6.0).reshape(3, 2), np.empty((3, 0)), np.ones((2, 1)))
    back = load_demos(save_demos(DemonstrationSet(NUMPY_LAYOUT, (traj,)), tmp_path))
    assert back.layout == NUMPY_LAYOUT == StateLayout(n=2, m=0, a=1)
    assert np.array_equal(_bits(back.trajectories[0].x_r.ravel()), _bits(traj.x_r.ravel()))
    assert np.array_equal(back.trajectories[0].torques, traj.torques)


@pytest.mark.parametrize("layout, meta", [
    (NUMPY_LAYOUT, None),
    (StateLayout(n=2, m=0, a=1),
     FitMeta(n_demos=np.int64(3), n_pairs=np.int64(6), wall_time_s=0.5, rank=np.int64(2), cond=4.0)),
], ids=["layout", "fit-meta"])
def test_models_with_numpy_integers_round_trip(tmp_path, layout, meta):
    model = KoopmanModel(np.array([[0.5, 0.25], [0.0, 1.0]]), LiftingSpec("identity", layout), layout, meta)
    back = load_model(save_model(model, tmp_path / "model.json"))
    assert back.layout == layout and back.fit_meta == meta
    assert np.array_equal(_bits(back.K.ravel()), _bits(model.K.ravel()))


def test_models_with_numpy_floats_round_trip(tmp_path):
    meta = FitMeta(n_demos=3, n_pairs=6, wall_time_s=np.float32(0.5), rank=2, cond=np.float16(4.0))
    layout = StateLayout(n=2, m=0, a=1)
    model = KoopmanModel(np.eye(2), LiftingSpec("identity", layout), layout, meta)
    back = load_model(save_model(model, tmp_path / "model.json")).fit_meta
    assert (back.wall_time_s, back.cond) == (0.5, 4.0)
    assert type(back.wall_time_s) is float and type(back.cond) is float


def test_demos_with_a_numpy_integer_seed_save_it_as_an_int(tmp_path):
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(tuple(CompositeState([float(t)], []) for t in range(2))),))
    seed = load_manifest(save_demos(demos, tmp_path, seed=np.int64(3)))["seed"]
    assert seed == 3 and type(seed) is int


# an env that JSON cannot write, or a seed that is not an integer >= 0 (json would write true or 1.5)
@pytest.mark.parametrize("kwargs, message", [
    ({"env": {"dt": np.float32(0.5)}}, "Object of type float32 is not JSON serializable"),
    ({"env": {"dt": float("nan")}}, "refusing to write non-finite values"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["float32", "nan", "seed-bool", "seed-float", "seed-string", "seed-negative"])
def test_a_manifest_json_cannot_write_leaves_no_file(tmp_path, kwargs, message):
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(tuple(CompositeState([float(t)], []) for t in range(2))),))
    directory = tmp_path / "demos"
    with pytest.raises(PersistError) as exc:
        save_demos(demos, directory, **kwargs)
    assert str(exc.value) == f"{directory / 'manifest.json'}: {message}"
    assert list(tmp_path.iterdir()) == []


def test_controller_round_trip(tmp_path):
    model = init(StateLayout(n=2, m=0, a=2), seed=13)
    save_controller(model, tmp_path / "ctrl.json")
    back = load_controller(tmp_path / "ctrl.json")
    assert back.layer_sizes == model.layer_sizes
    for got, want in zip(back.weights, model.weights):
        assert np.array_equal(_bits(got.ravel()), _bits(want.ravel()))
    for got, want in zip(back.biases, model.biases):
        assert np.array_equal(_bits(got), _bits(want))
    z = np.random.default_rng(0).normal(size=4)
    assert np.array_equal(forward(back, z[:2], z[2:]), forward(model, z[:2], z[2:]))


def _csv_writer_text(traj: Trajectory, layout: StateLayout) -> str:
    """Reference writer: csv.writer over format_float cells, one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"xr_{i}" for i in range(layout.n)] + [f"xo_{i}" for i in range(layout.m)]
                    + [f"tau_{i}" for i in range(layout.a)])
    for t, state in enumerate(np.concatenate([traj.x_r, traj.x_o], axis=1)):
        row = [str(t + 1)] + [format_float(v) for v in state]
        if traj.torques is not None and t < traj.horizon - 1:
            row += [format_float(v) for v in traj.torques[t]]
        else:
            row += [""] * layout.a
        writer.writerow(row)
    return buf.getvalue()


@pytest.mark.parametrize("m", [0, 2])
def test_writer_bytes_match_csv_writer(tmp_path, m):
    rng = np.random.default_rng(23 + m)
    layout = StateLayout(n=3, m=m, a=2)
    pool = np.array(_random_doubles(rng, 400) + [-0.0, 5e-324, 1e16, 1.0 / 3.0, *AWKWARD])
    trajs = []
    for horizon, torques in ((6, True), (9, True), (4, False), (2, True)):
        x_r, x_o = rng.choice(pool, size=(horizon, 3)), rng.choice(pool, size=(horizon, m))
        trajs.append(Trajectory.from_arrays(x_r, x_o, rng.choice(pool, size=(horizon - 1, 2)) if torques else None))
    save_demos(DemonstrationSet(layout, tuple(trajs)), tmp_path)
    for i, traj in enumerate(trajs):
        assert (tmp_path / f"traj_{i:04d}.csv").read_bytes() == _csv_writer_text(traj, layout).encode("utf-8")


def _same_trajectory(got: Trajectory, want: Trajectory) -> bool:
    if (got.torques is None) != (want.torques is None):
        return False
    pairs = [(got.x_r, want.x_r), (got.x_o, want.x_o)]
    if got.torques is not None:
        pairs.append((got.torques, want.torques))
    return all(g.shape == w.shape and np.array_equal(_bits(g), _bits(w)) for g, w in pairs)


def _per_cell_reader(text: str, layout: StateLayout) -> Trajectory:
    """The reference per-cell reading of a trajectory file: csv's cells through float(), torques where row 1 has
    them.  Reading a cell that float() refuses raises ValueError."""
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    d = layout.n + layout.m
    states = np.array([[float(cell) for cell in row[1 : 1 + d]] for row in rows])
    torques = np.array([[float(cell) for cell in row[1 + d :]] for row in rows[:-1]]) if rows[0][1 + d] else None
    return Trajectory.from_arrays(states[:, : layout.n], states[:, layout.n :], torques)


def _saved_demos_load_without_the_fault_scan(tmp_path, monkeypatch, torques: bool):
    rng = np.random.default_rng(31)
    layout = StateLayout(n=2, m=1, a=2)
    pool = np.array(_random_doubles(rng, 300) + AWKWARD)
    trajs = tuple(Trajectory.from_arrays(rng.choice(pool, size=(h, 2)), rng.choice(pool, size=(h, 1)),
                                         rng.choice(pool, size=(h - 1, 2)) if torques else None) for h in (2, 3, 50))
    manifest = save_demos(DemonstrationSet(layout, trajs), tmp_path)

    def scan(lines, layout):
        raise AssertionError(f"a saved file reached the fault scan: {lines[:3]}")

    monkeypatch.setattr(persist, "_first_fault", scan)
    for got, want in zip(load_demos(manifest).trajectories, trajs, strict=True):
        assert _same_trajectory(got, want)


def test_saved_files_take_the_c_parser(tmp_path, monkeypatch):
    _saved_demos_load_without_the_fault_scan(tmp_path, monkeypatch, torques=True)


def test_saved_torqueless_files_take_the_c_parser(tmp_path, monkeypatch):
    _saved_demos_load_without_the_fault_scan(tmp_path, monkeypatch, torques=False)


def test_c_parser_never_accepts_what_the_per_cell_reader_rejects(tmp_path):
    # seeded one- and two-character edits of a well-formed file with torques and of one without: an accepted
    # edit loads float() of its csv cells, bit for bit, and a refused one names a line
    rng = np.random.default_rng(5)
    layout = StateLayout(n=2, m=1, a=2)
    header = "t,xr_0,xr_1,xo_0,tau_0,tau_1\n"
    goods = [header + "1,0.5,-0.0,5e-324,1.5,-2.0\n2,1e+16,0.25,3.0,,\n",
             header + "1,0.5,-0.0,5e-324,,\n2,1e+16,0.25,3.0,,\n3,-7.5,1e-300,0.125,,\n"]
    alphabet = list("0123456789,\n.e-+ _\"\r#") + ["nan", "\x00", "\N{FULLWIDTH DIGIT ONE}",
                                                    "\N{ARABIC-INDIC DIGIT TWO}"]
    path = tmp_path / "traj.csv"
    outcomes = {"accepted": 0, "refused": 0}
    for good in goods:
        for _ in range(1000):
            chars = list(good)
            for _ in range(rng.integers(1, 3)):
                i = int(rng.integers(len(chars)))
                edit = rng.integers(3)
                if edit == 0:
                    chars.insert(i, str(rng.choice(alphabet)))
                elif edit == 1:
                    del chars[i]
                else:
                    chars[i] = str(rng.choice(alphabet))
            text = "".join(chars)
            path.write_bytes(text.encode("utf-8"))
            try:
                got = _read_trajectory(path, layout)
            except PersistError as exc:
                assert re.match(re.escape(f"{path}: line ") + r"\d+", str(exc)), (text, str(exc))
                outcomes["refused"] += 1
            else:
                assert _same_trajectory(got, _per_cell_reader(text, layout)), repr(text)
                outcomes["accepted"] += 1
    assert min(outcomes.values()) > 200, outcomes


# Files unlike the writer's, with what the reader makes of them: None where the file loads, and then equals
# float() of its cells, else its error after the path.
ODD_FILES = [
    ("quoted-cell", 't,xr_0,tau_0\n1,"1.5",1.0\n2,1.0,\n', None),
    ("crlf", "t,xr_0,tau_0\r\n1,0.5,1.0\r\n2,1.5,\r\n", None),
    ("blank-line", "t,xr_0,tau_0\n1,0.5,1.0\n\n2,1.5,\n", "line 3: 0 cells, expected 3"),
    ("extra-cell-on-every-row", "t,xr_0,tau_0\n1,0.5,1.0,9\n2,1.5,7,\n", "line 2: 4 cells, expected 3"),
    ("t-written-as-float", "t,xr_0,tau_0\n1.0,0.5,1.0\n2,1.5,\n", "line 2: t='1.0', expected 1"),
    ("underscore-digits", "t,xr_0,tau_0\n1,1_0,1.0\n2,1.5,\n", "line 2, column xr_0: bad float '1_0'"),
    ("torqueless", "t,xr_0,tau_0\n1,0.5,\n2,1.5,\n3,2.5,\n", None),
    ("no-final-newline", "t,xr_0,tau_0\n1,0.5,1.0\n2,1.5,", None),
]


@pytest.mark.parametrize("text, error", [case[1:] for case in ODD_FILES], ids=[case[0] for case in ODD_FILES])
def test_odd_files_take_the_per_cell_reader(tmp_path, text, error):
    manifest = _mini_manifest(tmp_path)
    path = tmp_path / "traj_0000.csv"
    path.write_bytes(text.encode("utf-8"))
    if error is None:
        (got,) = load_demos(manifest).trajectories
        assert _same_trajectory(got, _per_cell_reader(text, LAYOUT_1D))
    else:
        with pytest.raises(PersistError) as loaded:
            load_demos(manifest)
        assert str(loaded.value) == f"{path}: {error}"


def test_overlong_cell_is_read(tmp_path):
    # csv refused a cell longer than csv.field_size_limit(); np.loadtxt reads it
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1," + "0" * csv.field_size_limit() + "1.5,1.0\n2,1.5,\n")
    (got,) = load_demos(manifest).trajectories
    assert got.x_r.tolist() == [[1.5], [1.5]] and got.torques.tolist() == [[1.0]]


@pytest.mark.parametrize("text, error", [
    ("t,xr_0,tau_0\n1,0.5,1.0\n2,abc,1.0\n3,1.5,2.0,9\n4,1.0,\n", "line 3, column xr_0: bad float 'abc'"),
    ("t,xr_0,tau_0\n1,0.5,1.0\n2,1.5,2.0,9\n3,abc,1.0\n4,1.0,\n", "line 3: 4 cells, expected 3"),
], ids=["bad-float-first", "cell-count-first"])
def test_the_earlier_of_two_faults_is_named(tmp_path, text, error):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text(text)
    with pytest.raises(PersistError) as exc:
        load_demos(manifest)
    assert str(exc.value) == f"{tmp_path / 'traj_0000.csv'}: {error}"


# ---- trajectory file errors cite the position ----


def test_header_mismatch(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_1\n1,0.0,1.0\n2,1.0,\n")
    with pytest.raises(PersistError, match="line 1: header"):
        load_demos(manifest)


def test_partial_torque_cells(tmp_path):
    manifest = _mini_manifest(tmp_path, a=2)
    (tmp_path / "traj_0000.csv").write_text(
        "t,xr_0,tau_0,tau_1\n1,0.0,1.0,\n2,1.0,,\n"
    )
    with pytest.raises(PersistError, match="line 2: partially empty torque"):
        load_demos(manifest)


def test_torque_on_final_row(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1,0.0,1.0\n2,1.0,2.0\n")
    with pytest.raises(PersistError, match="final row"):
        load_demos(manifest)


def test_torque_gap_in_body(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text(
        "t,xr_0,tau_0\n1,0.0,1.0\n2,1.0,\n3,2.0,1.0\n4,3.0,\n"
    )
    with pytest.raises(PersistError, match="line 3: torque cells empty"):
        load_demos(manifest)


def test_time_index_must_count_from_one(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1,0.0,1.0\n3,1.0,\n")
    with pytest.raises(PersistError, match="line 3.*expected 2"):
        load_demos(manifest)


def test_bad_float_cites_cell(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1,abc,1.0\n2,1.0,\n")
    with pytest.raises(PersistError, match="line 2, column xr_0"):
        load_demos(manifest)


def test_row_width_checked(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1,0.0\n2,1.0,\n")
    with pytest.raises(PersistError, match="2 cells, expected 3"):
        load_demos(manifest)


def test_single_row_rejected(tmp_path):
    manifest = _mini_manifest(tmp_path)
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1,0.0,\n")
    with pytest.raises(PersistError, match="at least 2 rows"):
        load_demos(manifest)


def test_missing_trajectory_file(tmp_path):
    manifest = _mini_manifest(tmp_path, names=("traj_0000.csv", "traj_0001.csv"))
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1,0.0,1.0\n2,1.0,\n")
    with pytest.raises(PersistError, match="traj_0001.csv: no such file"):
        load_demos(manifest)


@pytest.mark.parametrize("entry, shown", [(5, "5"), ("", "''"), (None, "None"), (["a.csv"], "['a.csv']")])
def test_manifest_entry_must_be_a_file_name(tmp_path, entry, shown):
    manifest = _mini_manifest(tmp_path, names=("traj_0000.csv", entry))
    message = f"trajectories[1] must be a file name in the manifest's directory, got {shown}"
    with pytest.raises(PersistError, match=re.escape(message)):
        load_demos(manifest)


@pytest.mark.parametrize("entry", ["../b/traj_0001.csv", "ABSOLUTE", "sub/traj_0001.csv", ".."],
                         ids=["parent", "absolute", "subdirectory", "dot-dot"])
def test_manifest_entry_stays_in_the_manifest_directory(tmp_path, entry):
    # a readable trajectory waits at each path the entry names
    inside, outside = tmp_path / "a", tmp_path / "b"
    for directory in (inside, outside, inside / "sub"):
        directory.mkdir()
        (directory / "traj_0001.csv").write_text("t,xr_0,tau_0\n1,0.0,1.0\n2,1.0,\n")
    entry = str(outside / "traj_0001.csv") if entry == "ABSOLUTE" else entry
    manifest = _mini_manifest(inside, names=("traj_0001.csv", entry))
    with pytest.raises(PersistError) as exc:
        load_demos(manifest)
    assert str(exc.value) == (f"{manifest}: trajectories[1] must be a file name in the manifest's directory, "
                              f"got {entry!r}")


# ---- JSON errors cite the position ----


def test_truncated_json_reports_line_and_column(tmp_path):
    path = tmp_path / "model.json"
    text = (FIXTURES / "model.json").read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(PersistError, match=r"line \d+, column \d+"):
        load_model(path)


@pytest.mark.parametrize("loader", [load_manifest, load_demos, load_model, load_controller])
def test_non_object_json_rejected(tmp_path, loader):
    path = tmp_path / "top.json"
    path.write_text("[]\n")
    with pytest.raises(PersistError, match=r"top level must be an object, got \[\]$"):
        loader(path)


def test_missing_file():
    with pytest.raises(PersistError, match="no such file"):
        load_model("/nonexistent/model.json")


def test_schema_version_checked(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj.update(schema=2))
    with pytest.raises(PersistError, match="schema version 2"):
        load_model(path)


# True == 1 == 1.0 in Python, but not in a file
@pytest.mark.parametrize("loader", [load_manifest, load_model])
@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_schema_must_be_the_integer_one(tmp_path, loader, version):
    path = tmp_path / "file.json"
    source = FIXTURES / ("model.json" if loader is load_model else "demo_set/manifest.json")
    path.write_text(source.read_text())
    _rewrite(path, lambda obj: obj.update(schema=version))
    with pytest.raises(PersistError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}: schema version {version!r}, expected 1"


def test_ordering_tag_mismatch(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["lifting"].update(ordering="identity-v0"))
    with pytest.raises(PersistError, match="ordering tag 'identity-v0'"):
        load_model(path)


def test_unknown_lifting_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["lifting"].update(kind="fourier"))
    with pytest.raises(PersistError, match="unknown lifting kind"):
        load_model(path)


def test_lifting_layout_disagreement(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["lifting"].update(n=3))
    with pytest.raises(PersistError, match="disagree"):
        load_model(path)


# the fixture's layout has n=1 and m=0, which True, 1.0 and False equal in Python
@pytest.mark.parametrize("dims", [{"n": True}, {"n": 1.0}, {"m": False}, {"m": 0.0}],
                         ids=["n-bool", "n-float", "m-bool", "m-float"])
def test_lifting_dims_must_be_integers(tmp_path, dims):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["lifting"].update(dims))
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: lifting dims disagree with layout"


def test_k_shape_checked(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj.update(K=[[1.0, 2.0]]))
    with pytest.raises(PersistError, match=re.escape(f"{path}: K must have shape (1, 1), got (1, 2)")):
        load_model(path)


# np.array would load "a" with numpy's text, a ragged K with its "inhomogeneous shape" text, true as 1.0,
# and stop a huge integer with an OverflowError
@pytest.mark.parametrize("K, message", [
    ([["a"]], "K[0][0] must be a real number, got 'a'"), ([[1.0], [1.0, 2.0]], "K[1] must have shape (1,), got (2,)"),
    ([[True]], "K[0][0] must be a real number, got True"), ([["2.0"]], "K[0][0] must be a real number, got '2.0'"),
    ([2.0], "K must have shape (1, 1), got (1,)"),
    (None, "top level: missing key 'K'; accepted keys: schema, layout, lifting, K, fit_meta"),
    ([[10**400]], f"K[0][0] must be finite, got {10**400}"),
    ([[math.nan]], "K[0][0] must be finite, got nan"), ([[-math.inf]], "K[0][0] must be finite, got -inf"),
], ids=["word", "ragged", "bool", "numeric-string", "flat", "missing", "huge-integer", "nan", "minus-infinity"])
def test_malformed_k_names_the_file(tmp_path, K, message):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj.update(K=K) if K is not None else obj.pop("K"))
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"


def test_bad_fit_meta_block(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj.update(fit_meta={"n_demos": 1}))
    with pytest.raises(PersistError, match="fit_meta"):
        load_model(path)


# json.loads gives 2.7, "2" and true for these; int() would load them as 2, 2 and 1
@pytest.mark.parametrize("value, shown", [(2.7, "2.7"), ("2", "'2'"), (True, "True")])
def test_manifest_layout_sizes_must_be_integers(tmp_path, value, shown):
    path = _rewrite(_mini_manifest(tmp_path), lambda obj: obj["layout"].update(n=value))
    with pytest.raises(PersistError) as exc:
        load_demos(path)
    assert str(exc.value) == f"{path}: bad layout block: layout size n must be an integer, got {shown}"


def _fit_meta(**fields):
    """A mutation that writes a valid fit_meta block but for fields."""
    meta = {"n_demos": 1, "n_pairs": 1, "wall_time_s": 0.0, "rank": 1, "cond": 1.0}
    return lambda obj: obj.update(fit_meta=meta | fields)


@pytest.mark.parametrize("mutate, message", [
    (lambda obj: obj["layout"].update(a=1.0), "bad layout block: layout size a must be an integer, got 1.0"),
    (lambda obj: obj.update(fit_meta={"n_demos": 1, "n_pairs": 1, "wall_time_s": 0.0, "rank": 9.9, "cond": 1.0}),
     "bad fit_meta block: rank must be an integer, got 9.9"),
    (lambda obj: obj.update(fit_meta={"n_demos": "1", "n_pairs": 1, "wall_time_s": 0.0, "rank": 1, "cond": 1.0}),
     "bad fit_meta block: n_demos must be an integer, got '1'"),
    # float() would read these
    (_fit_meta(wall_time_s="1.5"), "bad fit_meta block: wall_time_s must be a real number, got '1.5'"),
    (_fit_meta(wall_time_s=True), "bad fit_meta block: wall_time_s must be a real number, got True"),
    (_fit_meta(wall_time_s="nan"), "bad fit_meta block: wall_time_s must be a real number, got 'nan'"),
    (_fit_meta(wall_time_s=math.nan), "bad fit_meta block: wall_time_s must be finite, got nan"),
    (_fit_meta(cond="Infinity"), "bad fit_meta block: cond must be a real number, got 'Infinity'"),
    # save_model writes +inf as null, so a number must be finite
    (_fit_meta(cond=math.inf), "bad fit_meta block: cond must be finite, got inf"),
    (_fit_meta(rank=-3), "bad fit_meta block: rank must be >= 0, got -3"),
    (_fit_meta(n_pairs=-1), "bad fit_meta block: n_pairs must be >= 0, got -1"),
], ids=["layout-a", "fit-meta-rank", "fit-meta-n-demos", "wall-time-string", "wall-time-bool", "wall-time-nan-string",
        "wall-time-nan", "cond-infinity-string", "cond-infinity", "rank-negative", "n-pairs-negative"])
def test_model_integer_fields_are_not_truncated(tmp_path, mutate, message):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, mutate)
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"


# tuple() would split the string "x" into its letters and accept names that are not strings
@pytest.mark.parametrize("key, value, message", [
    ("robot_names", "x", "robot_names must be a list or tuple, got 'x'"),
    ("robot_names", [1], "robot_names[0] must be a str, got 1"),
    ("object_names", "", "object_names must be a list or tuple, got ''"),
])
def test_layout_names_must_be_a_list_of_strings(tmp_path, key, value, message):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["layout"].update({key: value}))
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: bad layout block: {message}"


def test_empty_layout_names_load_as_none(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["layout"].update(robot_names=[], object_names=[]))
    layout = load_model(path).layout
    assert (layout.robot_names, layout.object_names) == (None, None)


def test_monomial_list_model_is_an_unknown_kind(tmp_path):
    # the lifting block a monomial-list model was once written with; its monomials key is refused first
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj["lifting"].update(kind="monomial-list", ordering="monomial-v1", monomials=[]))
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: lifting: unknown key 'monomials'; accepted keys: kind, n, m, ordering"
    _rewrite(path, lambda obj: obj["lifting"].pop("monomials"))
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: unknown lifting kind 'monomial-list'"


_LAYOUT_KEYS = "n, m, a, robot_names, object_names"


@pytest.mark.parametrize("source, mutate, message", [
    ("model.json", lambda obj: obj["layout"].pop("n"), f"layout: missing key 'n'; accepted keys: {_LAYOUT_KEYS}"),
    ("demo_set/manifest.json", lambda obj: obj["layout"].pop("a"),
     f"layout: missing key 'a'; accepted keys: {_LAYOUT_KEYS}"),
    ("model.json", lambda obj: obj.update(layout=[1]), "layout must be an object, got [1]"),
    ("model.json", lambda obj: obj.update(fit_meta=[1]), "fit_meta must be an object, got [1]"),
    ("model.json", lambda obj: obj.update(lifting=None), "lifting must be an object, got None"),
    ("controller.json", lambda obj: obj.update(input_norm=[0.0]), "input_norm must be an object, got [0.0]"),
    ("controller.json", lambda obj: obj["input_norm"].pop("std"),
     "input_norm: missing key 'std'; accepted keys: mean, std"),
    # one unknown key in each block, which the parent ignored
    ("demo_set/manifest.json", lambda obj: obj.update(comment="x"),
     "top level: unknown key 'comment'; accepted keys: schema, layout, trajectories, env, seed"),
    ("demo_set/manifest.json", lambda obj: obj["layout"].update(names=None),
     f"layout: unknown key 'names'; accepted keys: {_LAYOUT_KEYS}"),
    ("model.json", lambda obj: obj.update(k=[[1.0]]),
     "top level: unknown key 'k'; accepted keys: schema, layout, lifting, K, fit_meta"),
    ("model.json", lambda obj: obj["layout"].update(dt=0.1),
     f"layout: unknown key 'dt'; accepted keys: {_LAYOUT_KEYS}"),
    ("model.json", lambda obj: obj["lifting"].update(degree=2),
     "lifting: unknown key 'degree'; accepted keys: kind, n, m, ordering"),
    ("model.json", _fit_meta(seed=0),
     "fit_meta: unknown key 'seed'; accepted keys: n_demos, n_pairs, wall_time_s, rank, cond"),
    ("controller.json", lambda obj: obj.update(optimizer="adam"),
     "top level: unknown key 'optimizer'; accepted keys: schema, layer_sizes, weights, biases, input_norm, activation"),
    ("controller.json", lambda obj: obj["input_norm"].update(var=[1.0]),
     "input_norm: unknown key 'var'; accepted keys: mean, std"),
], ids=["layout-no-n", "manifest-layout-no-a", "layout-list", "fit-meta-list", "lifting-null", "input-norm-list",
        "input-norm-no-std", "manifest-unknown", "manifest-layout-unknown", "model-unknown", "model-layout-unknown",
        "lifting-unknown", "fit-meta-unknown", "controller-unknown", "input-norm-unknown"])
def test_file_blocks_hold_exactly_the_written_keys(tmp_path, source, mutate, message):
    loader = {"model.json": load_model, "controller.json": load_controller}.get(Path(source).name, load_demos)
    path = tmp_path / Path(source).name
    path.write_text((FIXTURES / source).read_text())
    _rewrite(path, mutate)
    with pytest.raises(PersistError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}: {message}"


def test_controller_layer_sizes_must_be_integers(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.update(layer_sizes=[1, 1.0]))
    with pytest.raises(PersistError) as exc:
        load_controller(path)
    assert str(exc.value) == f"{path}: bad controller block: layer_sizes[1] must be an integer, got 1.0"


@pytest.mark.parametrize("mutate, message", [
    (lambda obj: obj["input_norm"].update(std=[True]), "input_std[0] must be a real number, got True"),
    (lambda obj: obj["input_norm"].update(mean=["0.5"]), "input_mean[0] must be a real number, got '0.5'"),
    (lambda obj: obj.update(weights=[[[True]]]), "weights[0][0][0] must be a real number, got True"),
    (lambda obj: obj.update(biases=[[False]]), "biases[0][0] must be a real number, got False"),
    # json.loads reads the NaN and Infinity tokens, which save_controller never writes
    (lambda obj: obj.update(weights=[[[math.nan]]]), "weights[0][0][0] must be finite, got nan"),
    (lambda obj: obj["input_norm"].update(mean=[math.inf]), "input_mean[0] must be finite, got inf"),
    (lambda obj: obj.update(biases=[[-math.inf]]), "biases[0][0] must be finite, got -inf"),
    # enumerate raised Python's own TypeError for these
    (lambda obj: obj.update(weights=5), "weights must be a list or tuple, got 5"),
    (lambda obj: obj.update(biases=None), "biases must be a list or tuple, got None"),
    (lambda obj: obj.update(layer_sizes="1,1"), "layer_sizes must be a list or tuple, got '1,1'"),
], ids=["std-bool", "mean-string", "weights-bool", "biases-bool", "weights-nan", "mean-infinity", "biases-infinity",
        "weights-not-a-list", "biases-null", "layer-sizes-string"])
def test_controller_arrays_must_hold_numbers(tmp_path, mutate, message):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, mutate)
    with pytest.raises(PersistError) as exc:
        load_controller(path)
    assert str(exc.value) == f"{path}: bad controller block: {message}"


def test_controller_activation_must_be_relu(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.update(activation="tanh"))
    with pytest.raises(PersistError) as exc:
        load_controller(path)
    assert str(exc.value) == f"{path}: unsupported activation 'tanh', expected 'relu'"


def test_controller_missing_block(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.pop("input_norm"))
    with pytest.raises(PersistError) as exc:
        load_controller(path)
    assert str(exc.value) == (f"{path}: top level: missing key 'input_norm'; "
                              "accepted keys: schema, layer_sizes, weights, biases, input_norm, activation")


def test_controller_shape_errors_become_persist_errors(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.update(biases=[[1.0, 2.0]]))
    with pytest.raises(PersistError, match="biases"):
        load_controller(path)


# ---- writers refuse bad data ----


def test_save_model_rejects_nonfinite(tmp_path):
    with pytest.raises(PersistError, match="non-finite"):
        save_model(_nonfinite_model(), tmp_path / "model.json")


def test_save_controller_rejects_nonfinite(tmp_path):
    with pytest.raises(PersistError, match="non-finite"):
        save_controller(_nonfinite_controller(), tmp_path / "ctrl.json")


def test_save_demos_rejects_invalid(tmp_path):
    states = (CompositeState([np.nan], []), CompositeState([0.0], []))
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(states),))
    with pytest.raises(PersistError, match="refusing to save invalid demos"):
        save_demos(demos, tmp_path)


def test_invalid_demo_errors_name_trajectory_and_step(tmp_path):
    values = [0.0, 1.0, 2.0, np.nan, 4.0]
    bad = DemonstrationSet(LAYOUT_1D, (Trajectory(tuple(CompositeState([v], []) for v in values)),))
    with pytest.raises(PersistError, match=r"refusing to save invalid demos: .*traj 0, t 3"):
        save_demos(bad, tmp_path / "save")
    good = DemonstrationSet(LAYOUT_1D, (Trajectory(tuple(CompositeState([float(t)], []) for t in range(5))),))
    manifest = save_demos(good, tmp_path / "load")
    csv_path = manifest.parent / "traj_0000.csv"
    csv_path.write_text(csv_path.read_text().replace("4,3.0,", "4,nan,"))
    with pytest.raises(PersistError, match=r"loaded demos are invalid: .*traj 0, t 3"):
        load_demos(manifest)


def test_save_demos_rejects_nonfinite_env(tmp_path):
    states = tuple(CompositeState([float(t)], []) for t in range(2))
    demos = DemonstrationSet(LAYOUT_1D, (Trajectory(states),))
    with pytest.raises(PersistError, match="non-finite"):
        save_demos(demos, tmp_path, env={"dt": float("nan")})


# ---- JSON files are streamed into a temporary file and moved into place ----


def test_json_file_bytes_match_the_indented_document(tmp_path):
    obj = {"schema": 1, "K": np.arange(12.0).reshape(3, 4).tolist(), "tiny": 5e-324, "name": "é"}
    path = tmp_path / "doc.json"
    persist._write_json(obj, path)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_non_finite_json_leaves_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(PersistError, match=re.escape(f"{path}: refusing to write non-finite values")):
        persist._write_json({"a": [1.0, 2.0], "b": float("nan")}, path)
    assert list(tmp_path.iterdir()) == []


def test_non_finite_json_leaves_an_existing_file_untouched(tmp_path):
    path = tmp_path / "doc.json"
    persist._write_json({"a": 1.0}, path)
    before = path.read_bytes()
    with pytest.raises(PersistError, match="refusing to write non-finite values"):
        persist._write_json({"a": 2.0, "b": float("inf")}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


# ---- every file goes through one writer, which makes directories last ----


# the constructors refuse a non-finite entry, so these models are built around them, as no caller can
def _nonfinite_model():
    return _adopt(KoopmanModel, K=np.array([[np.inf]]), spec=LiftingSpec("identity", LAYOUT_1D), layout=LAYOUT_1D,
                  fit_meta=None)


def _nonfinite_controller():
    return _adopt(ControllerModel, layer_sizes=(1, 1), weights=(np.array([[np.inf]]),), biases=(np.zeros(1),),
                  input_mean=np.zeros(1), input_std=np.ones(1))


@pytest.mark.parametrize("save, model", [(save_model, _nonfinite_model), (save_controller, _nonfinite_controller)],
                         ids=["model", "controller"])
def test_refused_save_leaves_no_new_directory(tmp_path, save, model):
    path = tmp_path / "new" / "deeper" / "x.json"
    with pytest.raises(PersistError, match=re.escape(f"{path}: refusing to write non-finite values")):
        save(model(), path)
    assert list(tmp_path.iterdir()) == []


def _failing_chunks():
    yield "first chunk\n"
    raise RuntimeError("chunk source failed")


def test_failed_write_leaves_an_existing_file_untouched(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"t,x\n1,2.0\n")
    with pytest.raises(RuntimeError, match="chunk source failed"):
        persist._write(path, _failing_chunks())
    assert path.read_bytes() == b"t,x\n1,2.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_write_leaves_no_file_and_no_new_directory(tmp_path):
    with pytest.raises(RuntimeError, match="chunk source failed"):
        persist._write(tmp_path / "new" / "deeper" / "out.csv", _failing_chunks())
    assert list(tmp_path.iterdir()) == []


def test_failed_save_over_a_saved_set_leaves_no_manifest(tmp_path, monkeypatch):
    def demos(start):
        return DemonstrationSet(LAYOUT_1D, tuple(
            Trajectory.from_arrays([[start + i], [start + i + 0.5]], np.empty((2, 0))) for i in range(3)))

    manifest = save_demos(demos(0.0), tmp_path)
    write, calls = persist._write_trajectory, []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        write(*args)

    monkeypatch.setattr(persist, "_write_trajectory", fail_second)
    with pytest.raises(OSError, match="disk full"):
        save_demos(demos(10.0), tmp_path)
    assert not manifest.exists()
    with pytest.raises(PersistError, match="no such file"):
        load_demos(manifest)
    # a refused save leaves the old set as it was
    monkeypatch.setattr(persist, "_write_trajectory", write)
    save_demos(demos(0.0), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(PersistError, match="refusing to write non-finite values"):
        save_demos(demos(10.0), tmp_path, env={"dt": float("nan")})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_into_a_missing_directory_leaves_only_the_target(tmp_path):
    path = tmp_path / "new" / "deeper" / "out.csv"
    persist._write(path, iter(["t,x\n", "1,2.0\n"]))
    assert path.read_bytes() == b"t,x\n1,2.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["new"]
    assert [p.name for p in path.parent.iterdir()] == ["out.csv"]
