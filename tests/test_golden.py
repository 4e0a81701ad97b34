"""Byte-identity of the text outputs across refactors.

The digests below pin the exact bytes of the `asyncmetro run` CSV and
`--finals` file, of `asyncmetro dump-schedule`, of exported event traces, and
of the oracle's trajectory text (built here from its states) for small fixed
configs. A change that alters any of them alters a random stream, an ordering
rule or a float's formatting, and must say why.
"""

import hashlib
import io

import pytest

from asyncmetro import cli, harness, netsim, oracle
from asyncmetro import schedule as sched_mod

CONFIGS = {
    "coloring": (
        "[model]\nkind = coloring\nq = 7\n\n"
        "[graph]\nkind = random-regular\nn = 12\ndegree = 3\nseed = 5\n\n"
    ),
    "hardcore": (
        "[model]\nkind = hardcore\nlambda = 1.3\n\n"
        "[graph]\nkind = grid\nrows = 3\ncols = 4\n\n"
    ),
    "ising": (
        "[model]\nkind = ising\nbeta = 0.4\n\n"
        "[graph]\nkind = cycle\nn = 10\n\n"
    ),
}

COMMON = (
    "[chain]\nT = 4.0\n\n"
    "[scheduler]\npolicies = synchronous, uniform, adversarial-max\nseed = 11\n\n"
    "[experiment]\nseeds = 1:3\n"
)

RUN_CSV = {
    "coloring": "67bde113f85a37809d8adee75a18fb9f8473d1e8e0956a46b51de1e7cfeebe6d",
    "hardcore": "600bcf8ec0ebf4dd1358d5513277760ceee4357ad2d0acdaa7d83db142ec4a78",
    "ising": "e507b6f717c3c4b1be756e492e81ee010e611ed7b24d16f39a155b7c14ef0858",
}
FINALS = {
    "coloring": "788d13ec8d8f361fdb34176a6514f2655efe1ec076791bf997f86180d26008cf",
    "hardcore": "f904becd103ce0577fb28e8d77431bc0411bdb4605336c66116d8b95415f6cd7",
    "ising": "f895cea7e97ea957cfcd06ab209914c3d4d2074856cb97bc5c3205e679980871",
}
TRACE = {
    "coloring": "25eec83cdf66dda9ed023ce8b8a941b08be3d6453a6207e034f7560de6aab7b9",
    "hardcore": "79cf7888cad729d52ec1bcce51eaf9b8e7eca8b5826ce3af9796ad4b6a746b05",
    "ising": "1a59885b23d4518dc37f40dd8be5a5b6e764b73dd638d75a9e40dcab15e7c4f6",
}
DUMP_SCHEDULE = {
    "coloring": "05ed02bda6e6ba314e606b6cf2b1e91f926fb6f1500c1a97d7d0f29a3b16cbf2",
    "hardcore": "288c864a9ae6efee7751020691f723c155fca40ce2ea305b0c3179f336b9401d",
    "ising": "61694a4617710d5ed2f9b5e3cf3cb0a6c4d352f074af0d7ae1f000f9362ae9ab",
}
TRAJECTORY_ISING = "fea4b882d116091d47136fc2d076f37e0404aea348fddbfecc5c9e340f48d034"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def config_path(tmp_path, request):
    path = tmp_path / f"{request.param}.ini"
    path.write_text(CONFIGS[request.param] + COMMON)
    return path


@pytest.mark.parametrize("config_path", sorted(CONFIGS), indirect=True)
def test_run_csv_and_finals(config_path, tmp_path, monkeypatch):
    kind = config_path.stem
    drawn = []
    build = harness.build_schedule

    def spy(cfg, model, seed):
        drawn.append(seed)
        return build(cfg, model, seed)

    monkeypatch.setattr(harness, "build_schedule", spy)
    out, finals = tmp_path / "runs.csv", tmp_path / "finals.txt"
    assert cli.main(["run", str(config_path), "-o", str(out), "--finals", str(finals)]) == 0
    assert drawn == [1, 2, 3]  # the three policies of a seed run on its one schedule
    assert _sha(out.read_text()) == RUN_CSV[kind]
    assert _sha(finals.read_text()) == FINALS[kind]


@pytest.mark.parametrize("config_path", sorted(CONFIGS), indirect=True)
def test_dump_schedule(config_path, tmp_path):
    out = tmp_path / "schedule.txt"
    assert cli.main(["dump-schedule", str(config_path), "-o", str(out)]) == 0
    assert _sha(out.read_text()) == DUMP_SCHEDULE[config_path.stem]


@pytest.mark.parametrize("config_path", sorted(CONFIGS), indirect=True)
def test_uniform_trace(config_path):
    cfg = harness.load_config(config_path)
    model, y0 = harness.build_cell(cfg)
    sch = harness.build_schedule(cfg, model, 2)
    result = netsim.run(model, sch, y0, harness._scheduler_for("uniform", cfg, 2), collect_trace=True)
    buf = io.StringIO()
    netsim.write_trace(result.trace, buf)
    assert _sha(buf.getvalue()) == TRACE[config_path.stem]


@pytest.mark.parametrize("config_path", ["ising"], indirect=True)
def test_trajectory(config_path):
    cfg = harness.load_config(config_path)
    model, y0 = harness.build_cell(cfg)
    sch = sched_mod.generate(model, cfg.T, 3)
    run = oracle.run_continuous(model, sch, y0)
    # one "node index time new_state" line per update, in the (time, node, index) order
    times = [t for ts in sch.times for t in ts.tolist()]
    text = ""
    for pos, state in zip(sch.order.tolist(), run.states):
        node, index = sch.update_at(pos)
        text += f"{node} {index} {times[pos]!r} {state}\n"
    assert _sha(text) == TRAJECTORY_ISING
