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
from koopmanix.controller import ControllerModel, evaluate, init
from koopmanix.koopman import FitMeta
from koopmanix.persist import _parse_trajectory, _read_trajectory_cells, format_float

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
    assert evaluate(ctrl, [2.0]) == 7.0  # 3 * 2 + 1, single layer is linear
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


def test_monomial_model_round_trip(tmp_path):
    layout = StateLayout(n=1, m=1, a=1)
    monos = ((2, 0), (1, 1))
    spec = LiftingSpec("monomial-list", layout, monos)
    from koopmanix import dimension

    p = dimension(spec)
    model = KoopmanModel(np.eye(p), spec, layout)
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    assert back.spec.monomials == monos


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
    assert np.array_equal(evaluate(back, z), evaluate(model, z))


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


def test_saved_files_take_the_c_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(31)
    layout = StateLayout(n=2, m=1, a=2)
    pool = np.array(_random_doubles(rng, 300) + AWKWARD)
    trajs = tuple(Trajectory.from_arrays(rng.choice(pool, size=(h, 2)), rng.choice(pool, size=(h, 1)),
                                         rng.choice(pool, size=(h - 1, 2))) for h in (2, 3, 50))
    manifest = save_demos(DemonstrationSet(layout, trajs), tmp_path)
    for i, want in enumerate(trajs):
        assert _same_trajectory(_read_trajectory_cells(tmp_path / f"traj_{i:04d}.csv", layout), want)

    def per_cell_reader(path, layout):
        raise AssertionError(f"{path} fell back to the per-cell reader")

    monkeypatch.setattr(persist, "_read_trajectory_cells", per_cell_reader)
    for got, want in zip(load_demos(manifest).trajectories, trajs):
        assert _same_trajectory(got, want)


def test_c_parser_never_accepts_what_the_per_cell_reader_rejects(tmp_path):
    # random one- and two-character edits of a well-formed file
    rng = np.random.default_rng(5)
    layout = StateLayout(n=2, m=1, a=2)
    good = "t,xr_0,xr_1,xo_0,tau_0,tau_1\n1,0.5,-0.0,5e-324,1.5,-2.0\n2,1e+16,0.25,3.0,,\n"
    alphabet = list("0123456789,\n.e-+ _\"\r#") + ["nan", "\x00", "\N{FULLWIDTH DIGIT ONE}"]
    path = tmp_path / "traj.csv"
    for _ in range(400):
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
        fast = _parse_trajectory(text, layout)
        if fast is None:
            continue
        path.write_bytes(text.encode("utf-8"))
        assert _same_trajectory(fast, _read_trajectory_cells(path, layout)), repr(text)


# Files the C parser must leave to the per-cell reader, with what that reader
# makes of them: None where the file loads, else the start of its error.
ODD_FILES = [
    ("quoted-cell", 't,xr_0,tau_0\n1,"1.5",1.0\n2,1.0,\n', None),
    ("crlf", "t,xr_0,tau_0\r\n1,0.5,1.0\r\n2,1.5,\r\n", None),
    ("blank-line", "t,xr_0,tau_0\n1,0.5,1.0\n\n2,1.5,\n", "line 3: 0 cells, expected 3"),
    ("extra-cell-on-every-row", "t,xr_0,tau_0\n1,0.5,1.0,9\n2,1.5,7,\n", "line 2: 4 cells, expected 3"),
    ("t-written-as-float", "t,xr_0,tau_0\n1.0,0.5,1.0\n2,1.5,\n", "line 2: t='1.0', expected 1"),
    ("underscore-digits", "t,xr_0,tau_0\n1,1_0,1.0\n2,1.5,\n", None),
    ("torqueless", "t,xr_0,tau_0\n1,0.5,\n2,1.5,\n3,2.5,\n", None),
    ("no-final-newline", "t,xr_0,tau_0\n1,0.5,1.0\n2,1.5,", None),
]


@pytest.mark.parametrize("text, error", [case[1:] for case in ODD_FILES], ids=[case[0] for case in ODD_FILES])
def test_odd_files_take_the_per_cell_reader(tmp_path, text, error):
    manifest = _mini_manifest(tmp_path)
    path = tmp_path / "traj_0000.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _parse_trajectory(text, LAYOUT_1D) is None
    if error is None:
        (got,) = load_demos(manifest).trajectories
        assert _same_trajectory(got, _read_trajectory_cells(path, LAYOUT_1D))
    else:
        with pytest.raises(PersistError) as per_cell:
            _read_trajectory_cells(path, LAYOUT_1D)
        with pytest.raises(PersistError) as loaded:
            load_demos(manifest)
        assert str(loaded.value) == str(per_cell.value) == f"{path}: {error}"


def test_overlong_cell_takes_the_per_cell_reader(tmp_path):
    manifest = _mini_manifest(tmp_path)
    text = "t,xr_0,tau_0\n1," + "0" * csv.field_size_limit() + "1.5,1.0\n2,1.5,\n"
    (tmp_path / "traj_0000.csv").write_text(text)
    assert _parse_trajectory(text, LAYOUT_1D) is None
    with pytest.raises(PersistError) as loaded:
        load_demos(manifest)
    assert str(loaded.value).startswith(f"{tmp_path / 'traj_0000.csv'}: line 2: field larger than field limit")


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
    with pytest.raises(PersistError, match=r"trajectories\[1\] must be a file name, got " + re.escape(shown)):
        load_demos(manifest)


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
    with pytest.raises(PersistError, match="top level must be an object"):
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


def test_k_shape_checked(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj.update(K=[[1.0, 2.0]]))
    with pytest.raises(PersistError, match="K has shape"):
        load_model(path)


def test_bad_fit_meta_block(tmp_path):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, lambda obj: obj.update(fit_meta={"n_demos": 1}))
    with pytest.raises(PersistError, match="fit_meta"):
        load_model(path)


# json.loads gives 2.7, "2" and true for these; int() would load them as 2, 2 and 1
@pytest.mark.parametrize("value, shown", [(2.7, "2.7"), ("2", '"2"'), (True, "true")])
def test_manifest_layout_sizes_must_be_integers(tmp_path, value, shown):
    path = _rewrite(_mini_manifest(tmp_path), lambda obj: obj["layout"].update(n=value))
    with pytest.raises(PersistError) as exc:
        load_demos(path)
    assert str(exc.value) == f"{path}: bad layout block: n must be an integer, got {shown}"


@pytest.mark.parametrize("mutate, message", [
    (lambda obj: obj["layout"].update(a=1.0), "bad layout block: a must be an integer, got 1.0"),
    (lambda obj: obj.update(fit_meta={"n_demos": 1, "n_pairs": 1, "wall_time_s": 0.0, "rank": 9.9, "cond": 1.0}),
     "bad fit_meta block: rank must be an integer, got 9.9"),
    (lambda obj: obj.update(fit_meta={"n_demos": "1", "n_pairs": 1, "wall_time_s": 0.0, "rank": 1, "cond": 1.0}),
     'bad fit_meta block: n_demos must be an integer, got "1"'),
], ids=["layout-a", "fit-meta-rank", "fit-meta-n-demos"])
def test_model_integer_fields_are_not_truncated(tmp_path, mutate, message):
    path = tmp_path / "model.json"
    path.write_text((FIXTURES / "model.json").read_text())
    _rewrite(path, mutate)
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"


def test_monomial_exponents_must_be_integers(tmp_path):
    layout = StateLayout(n=1, m=1, a=1)
    spec = LiftingSpec("monomial-list", layout, ((2, 0), (1, 1)))
    path = save_model(KoopmanModel(np.eye(4), spec, layout), tmp_path / "model.json")
    _rewrite(path, lambda obj: obj["lifting"].update(monomials=[[2, 0], [1.5, 1]]))
    with pytest.raises(PersistError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: bad lifting block: monomials[1][0] must be an integer, got 1.5"


def test_controller_layer_sizes_must_be_integers(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.update(layer_sizes=[1, 1.0]))
    with pytest.raises(PersistError) as exc:
        load_controller(path)
    assert str(exc.value) == f"{path}: bad controller block: layer_sizes[1] must be an integer, got 1.0"


def test_controller_missing_block(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.pop("input_norm"))
    with pytest.raises(PersistError, match="bad controller block"):
        load_controller(path)


def test_controller_shape_errors_become_persist_errors(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text((FIXTURES / "controller.json").read_text())
    _rewrite(path, lambda obj: obj.update(biases=[[1.0, 2.0]]))
    with pytest.raises(PersistError, match="biases"):
        load_controller(path)


# ---- writers refuse bad data ----


def test_save_model_rejects_nonfinite():
    model = KoopmanModel(np.array([[np.inf]]), LiftingSpec("identity", LAYOUT_1D), LAYOUT_1D)
    with pytest.raises(PersistError, match="non-finite"):
        save_model(model, "/tmp/should_not_exist.json")


def test_save_controller_rejects_nonfinite(tmp_path):
    model = ControllerModel(
        layer_sizes=(1, 1),
        weights=(np.array([[np.inf]]),),
        biases=(np.zeros(1),),
        input_mean=np.zeros(1),
        input_std=np.ones(1),
    )
    with pytest.raises(PersistError, match="non-finite"):
        save_controller(model, tmp_path / "ctrl.json")


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
