import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fgabloch.cli import main
from fgabloch.config import RunConfig, RunReport
from fgabloch.errors import ConfigError
from fgabloch import pipeline
from fgabloch.wavefield import WaveField, l2_distance, write_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

BASE_CONFIG = """
[potential]
dimension = 1
lattice_spec = cosine
external_spec = harmonic(k=1.0, center=1.0)

[numerics]
eps = 0.0625
M = 64
K = 16
n_bands = 4
dt = 1e-3
ref_dt_divisor = 320

[initial]
type = gaussian-packet
q0 = 1.0
p0 = 0.5

[run]
L = 2.0
T = 0.2
bands = 1
recon_bands = 4
out = {out}

[tolerances]
gap_guard_factor = 2.0
"""


@pytest.fixture()
def config_file(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.format(out=out))
    return path, out


def test_package_import_loads_no_scipy():
    code = ("import sys, fgabloch, fgabloch.pipeline, fgabloch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert run.stdout.strip() == "[]"


# --- configuration ------------------------------------------------------------

def test_config_round_trip(config_file):
    path, _ = config_file
    cfg = RunConfig.from_text(path.read_text())
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg


def test_config_range_checks():
    good = RunConfig()
    good.validate()
    for key, val in (("eps", "1.5"), ("M", "48"), ("K", "0"), ("T", "-1"),
                     ("dt", "0"), ("x_per_cell", "4"), ("ref_dt_divisor", "10")):
        cfg = RunConfig()
        cfg.set_value(key, val)
        with pytest.raises(ConfigError):
            cfg.validate()
    cfg = RunConfig()
    cfg.set_value("eps", "0.3")      # L/eps not an integer with L = 4
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_overrides_and_aliases():
    cfg = RunConfig()
    cfg.apply_overrides(["numerics.dt=5e-4", "run.T=0.75", "K=8",
                         "run.bands=1,2", "eps=0.125"])
    assert cfg.dt == 5e-4 and cfg.t_final == 0.75 and cfg.cutoff == 8
    assert cfg.bands == (1, 2) and cfg.eps_list == (0.125,)
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["numerics.T=1.0"])      # wrong section
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["nonsense"])


def test_compare_reference_needs_a_grid_multiple(config_file, tmp_path, capsys):
    """With compare_reference on, the field grid is the reference grid
    subsampled: a 1D ref_x_per_cell that is not a multiple of x_per_cell is a
    configuration error naming both settings, in a config, through --set
    (exit code 2), and for an initial wave-field file on another grid."""
    cfg = RunConfig(compare_reference=True, ref_x_per_cell=40)
    with pytest.raises(ConfigError, match="ref_x_per_cell = 40.*x_per_cell = 16"):
        cfg.validate()
    replace(cfg, compare_reference=False).validate()
    shipped = RunConfig.from_text((CONFIGS / "propagate.ini").read_text())
    assert shipped.compare_reference and (shipped.x_per_cell, shipped.ref_x_per_cell) == (16, 32)
    path, _ = config_file
    code = main(["propagate", "--config", str(path), "--set", "run.compare_reference=true",
                 "--set", "numerics.ref_x_per_cell=40"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ref_x_per_cell = 40" in err and "x_per_cell = 16" in err
    # a file of 24 points per cell cannot be read off the 32-point reference grid
    cfg = RunConfig.from_text(path.read_text())
    table = pipeline.build_table(cfg, cfg.eps)
    psi0, _ = pipeline.build_initial(cfg, table, cfg.eps, n_x=int(cfg.length / cfg.eps) * 24)
    psi0.write(tmp_path / "init.wf")
    cfg = cfg.apply_overrides(["initial.type=wavefield-file",
                               f"initial.file={tmp_path / 'init.wf'}",
                               "run.compare_reference=true"])
    with pytest.raises(ConfigError, match="not a multiple of initial field"):
        pipeline.cmd_propagate(cfg)


def test_compare_reference_refused_in_2d():
    """The reference solver is one-dimensional, so a 2D comparison would do
    nothing: it is a configuration error, not a run without [errors]."""
    with pytest.raises(ConfigError, match="compare_reference needs dimension = 1"):
        RunConfig(dimension=2, compare_reference=True).validate()
    RunConfig(dimension=2).validate()


def test_lattice_amplitude_needs_the_cosine_lattice():
    """lattice_amplitude scales only the built-in cosine lattice; with any
    other lattice_spec a non-default amplitude is refused, not ignored."""
    RunConfig(lattice_spec="cosine", lattice_amplitude=3.0).validate()
    RunConfig(lattice_spec="zero").validate()
    for spec in ("zero", "1:0.5:0, -1:0.5:0"):
        with pytest.raises(ConfigError, match="lattice_amplitude = 3.0"):
            RunConfig(lattice_spec=spec, lattice_amplitude=3.0).validate()
    with pytest.raises(ConfigError):
        RunConfig().apply_overrides(["potential.lattice_spec=zero",
                                     "potential.lattice_amplitude=3"])


def test_write_csv_cell_forms(tmp_path):
    """Columns of Python or numpy integers print as integers, of strings as
    they are, and every other column as the repr of each Python float."""
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d", "e"],
              [[1, 3], np.array([2, 4], dtype=np.int64), [np.float64(0.1), np.float32(0.5)],
               ["floor", ""], [4.0, np.float64(2.0)]])
    assert path.read_text() == "a,b,c,d,e\n1,2,0.1,floor,4.0\n3,4,0.5,,2.0\n"


def test_write_psi2_csv_cells_parse_as_floats(tmp_path, rng):
    """Every cell of a written 1D and 2D |psi|^2 file parses with float() and
    gives back the grid point and |psi|^2 bit for bit."""
    for d, n in ((1, 16), (2, 6)):
        vals = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
        field = WaveField(d, 0.25, 1.0, vals, 0.0)
        path = tmp_path / f"psi2_{d}d.csv"
        pipeline.write_psi2_csv(field, path)
        header, *rows = path.read_text().splitlines()
        assert header.split(",")[-1] == "psi2"
        cells = np.array([[float(c) for c in row.split(",")] for row in rows])
        axes = np.meshgrid(*[field.axis_points()] * d, indexing="ij")
        assert cells.shape == (n ** d, d + 1)
        assert np.array_equal(cells[:, :d], np.stack(axes, -1).reshape(-1, d))
        assert np.array_equal(cells[:, d], [abs(v) ** 2 for v in vals.ravel()])


def test_report_round_trip():
    rep = RunReport()
    rep.put("meta", "command", "bands")
    rep.put("monitors", "min_gap_band1", 0.9998396254814379)
    rep.put("timings", "bands", "0.123")
    again = RunReport.from_text(rep.to_text())
    assert again == rep
    assert again.get_float("monitors", "min_gap_band1") == 0.9998396254814379


# --- pipeline commands ----------------------------------------------------------

def test_cmd_bands_outputs(config_file):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    report = pipeline.cmd_bands(cfg)
    csv = (out / "bands.csv").read_text().splitlines()
    m = int(report.get("monitors", "M"))
    assert len([l for l in csv if l.startswith("1,")]) == m
    assert abs(abs(report.get_float("monitors", "holonomy_band1")) - np.pi) < 1e-8
    assert report.get_float("monitors", "berry_im_diag") <= 1e-8
    assert (out / "report_bands.txt").exists()


def test_cmd_bands_deterministic(config_file):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    pipeline.cmd_bands(cfg)
    first = (out / "bands.csv").read_bytes()
    pipeline.cmd_bands(cfg)
    assert (out / "bands.csv").read_bytes() == first


def test_cmd_decompose(config_file):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    report = pipeline.cmd_decompose(cfg)
    assert (out / "coeffs_band1.csv").exists()
    ratio = report.get_float("monitors", "windowed_mass_ratio")
    assert 0.97 <= ratio <= 1.0 + 1e-9
    assert report.get_float("monitors", "reconstruction_rel") <= 1e-3
    seeds = int(report.get("monitors", "seeds_band1"))
    total = int(report.get("monitors", "grid_points_band1"))
    assert seeds < total


def test_cmd_decompose_transforms_each_band_once(config_file, monkeypatch):
    """bands = 1, recon_bands = 4: four windowed transforms serve the export,
    the Parseval mass and the reconstruction, and the reported mass and
    residual are those of parseval_check and reconstruct, bit for bit."""
    from fgabloch import transform
    from fgabloch.wavefield import l2_distance
    path, _ = config_file
    cfg = RunConfig.from_text(path.read_text())
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    real = transform.windowed_bloch_transform
    monkeypatch.setattr(pipeline, "windowed_bloch_transform", counting)
    monkeypatch.setattr(transform, "windowed_bloch_transform", counting)
    report = pipeline.cmd_decompose(cfg)
    assert sorted(calls) == [1, 2, 3, 4]
    monkeypatch.undo()
    table = pipeline.build_table(cfg, cfg.eps)
    psi0, _ = pipeline.build_initial(cfg, table, cfg.eps)
    psg = transform.phase_grid_for_field(psi0, table, c_g=cfg.c_g, r_c=cfg.r_c)
    _, mass = transform.parseval_check(psi0, table, 4, psg, r_c=cfg.r_c)
    rec = transform.reconstruct(psi0, table, range(1, 5), psg, r_c=cfg.r_c)
    assert report.get_float("monitors", "windowed_mass") == mass
    assert report.get_float("monitors", "reconstruction_residual") == l2_distance(rec, psi0)[0]


def _counting_synthesize(monkeypatch):
    """Patch pipeline.synthesize to record every plan it is given."""
    plans, real = [], pipeline.synthesize

    def counting(plan):
        plans.append(plan)
        return real(plan)

    monkeypatch.setattr(pipeline, "synthesize", counting)
    return plans


def test_cmd_propagate_synthesizes_each_checkpoint_once(tmp_path, monkeypatch):
    """propagate.ini (band 1, three checkpoints, reference comparison on):
    one synthesis for the t = 0 check and one per checkpoint, on the
    reference grid, serve the written fields and the comparison."""
    cfg = RunConfig.from_text((CONFIGS / "propagate.ini").read_text())
    plans = _counting_synthesize(monkeypatch)
    pipeline.cmd_propagate(cfg, out_dir=str(tmp_path))
    n_ref = int(round(cfg.length / cfg.eps)) * cfg.ref_x_per_cell
    assert len(plans) == 4
    assert [p.out_n_x for p in plans[1:]] == [n_ref] * 3


def test_cmd_propagate_fields_equal_per_band_syntheses(config_file, monkeypatch):
    """bands = 1, 2: band 1 is synthesized on the reference grid and band 2
    on the field grid; each written psi_fga is the field-grid sum of the
    bands' syntheses, and each vs_reference is band 1's fine-grid synthesis
    against the reference, both to 1e-13 relative."""
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text()).apply_overrides(
        ["run.bands=1,2", "tolerances.gap_guard_factor=0", "run.compare_reference=true"])
    plans = _counting_synthesize(monkeypatch)
    refs, real_ref = {}, pipeline.reference_propagate

    def keeping(*args, **kwargs):
        refs.update(real_ref(*args, **kwargs))
        return refs

    monkeypatch.setattr(pipeline, "reference_propagate", keeping)
    report = pipeline.cmd_propagate(cfg)
    monkeypatch.undo()
    n_x = int(round(cfg.length / cfg.eps)) * cfg.x_per_cell
    checkpoints = cfg.checkpoint_times()
    assert len(plans) == 2 + 2 * len(checkpoints)    # t = 0 check, then per checkpoint
    assert int(report.get("monitors", "seeds_band2")) > 0
    for i, t in enumerate(checkpoints):
        band1, band2 = plans[2 + 2 * i: 4 + 2 * i]
        assert (band1.band, band2.band) == (1, 2)
        assert (band1.out_n_x, band2.out_n_x) == (n_x * cfg.ref_x_per_cell // cfg.x_per_cell,
                                                  n_x)
        label = pipeline._fga_time_label(t)
        coarse = sum(pipeline.synthesize(replace(p, out_n_x=n_x)).values
                     for p in (band1, band2))
        written = WaveField.read(out / f"psi_fga_t{label}.wf").values
        assert np.abs(written - coarse).max() <= 1e-13 * np.abs(coarse).max()
        expected = l2_distance(pipeline.synthesize(band1), refs[t])[1]
        got = report.get_float("errors", f"vs_reference_t{label}")
        assert abs(got - expected) <= 1e-13 * expected


def test_cmd_propagate_and_reports(config_file):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    cfg.compare_reference = True
    report = pipeline.cmd_propagate(cfg)
    assert report.get_float("monitors", "t0_consistency") <= 1e-10
    assert report.get_float("monitors", "max_sympl_residual") <= 1e-8
    assert report.get_float("monitors", "min_sigma_z") >= np.sqrt(2) - 1e-6
    err = report.get_float("errors", "vs_reference_t0p2")
    assert err <= 5e-3
    for stem in ("psi_fga_t0", "psi_fga_t0p1", "psi_fga_t0p2"):
        assert (out / f"{stem}.wf").exists()
    assert (out / "traj_band1_t0p2.csv").exists()
    again = RunReport.from_text((out / "report_propagate.txt").read_text())
    assert again == report


@pytest.mark.parametrize("command", ["propagate", "convergence"])
def test_report_work_counters(command, config_file, monkeypatch):
    """[work] traj_steps is the seeds times the RK4 steps of every
    integration (T / dt each), and synthesis_window_points the trajectories
    times min(span, n_x)^d of every synthesis after t = 0.  propagate's t = 0
    check counts its synthesis under t0_synthesis_window_points and times it
    under [timings] t0_synthesize."""
    path, _ = config_file
    cfg = RunConfig.from_text(path.read_text()).apply_overrides(
        ["run.compare_reference=true"]
        + (["numerics.eps_list=0.125, 0.0625"] if command == "convergence" else []))
    plans = _counting_synthesize(monkeypatch)
    seed_counts, real = [], pipeline.integrate_ensemble

    def recording(seeds, *args, **kwargs):
        seed_counts.append(seeds.count)
        return real(seeds, *args, **kwargs)

    monkeypatch.setattr(pipeline, "integrate_ensemble", recording)
    report = getattr(pipeline, f"cmd_{command}")(cfg)
    assert len(plans) == (2 if command == "convergence" else 4)
    steps = round(cfg.t_final / cfg.dt)
    assert int(report.get("work", "traj_steps")) == sum(seed_counts) * steps

    def points(ps):
        return sum(p.seeds.count * min(p.span, p.out_n_x) for p in ps)

    t0_plans = plans[:1] if command == "propagate" else []
    assert int(report.get("work", "synthesis_window_points")) == points(plans[len(t0_plans):])
    if t0_plans:
        assert int(report.get("work", "t0_synthesis_window_points")) == points(t0_plans)
        assert float(report.get("timings", "t0_synthesize")) >= 0.0
    else:
        assert "t0_synthesis_window_points" not in report.sections["work"]


@pytest.mark.parametrize("command", ["bands", "convergence"])
def test_report_peak_rss(command, config_file):
    """Reports carry [work] peak_rss_mb (every command writes its report
    through pipeline._write_report); convergence also records the peak after
    each rung, and the values never decrease down the ladder."""
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text()).apply_overrides(
        ["numerics.eps_list=0.125, 0.0625"] if command == "convergence" else [])
    report = getattr(pipeline, f"cmd_{command}")(cfg)
    work = report.sections["work"]
    rungs = ([work[f"peak_rss_mb_eps_{eps!r}"] for eps in (0.125, 0.0625)]
             if command == "convergence" else [])
    peaks = [float(v) for v in rungs + [work["peak_rss_mb"]]]
    assert peaks[0] > 0
    assert peaks == sorted(peaks)
    assert RunReport.from_text((out / f"report_{command}.txt").read_text()) == report


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_report_threads_effective(config_file, monkeypatch):
    """[meta] threads_effective is the process's OS thread count when the
    report is written (one /proc/self/task entry per thread), and
    'unavailable' where /proc/self/status is absent."""
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    report = pipeline.cmd_bands(cfg)
    assert int(report.get("meta", "threads_effective")) == len(os.listdir("/proc/self/task"))
    assert RunReport.from_text((out / "report_bands.txt").read_text()) == report
    monkeypatch.setattr(pipeline, "_PROC_STATUS", str(out / "no_such_status"))
    assert pipeline.cmd_bands(cfg).get("meta", "threads_effective") == "unavailable"


def test_cmd_propagate_t0_equals_projection(config_file, tmp_path):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    cfg.t_final = 0.0
    cfg.checkpoints = (0.0,)
    from fgabloch.wavefield import WaveField, l2_distance, write_csv
    from fgabloch.transform import band_projection, phase_grid_for_field
    table = pipeline.build_table(cfg, cfg.eps)
    psi0, _ = pipeline.build_initial(cfg, table, cfg.eps)
    psg = phase_grid_for_field(psi0, table)
    proj = band_projection(psi0, table, 1, psg)
    # default seed threshold: the written field misses only the dropped tail
    pipeline.cmd_propagate(cfg)
    fga0 = WaveField.read(out / "psi_fga_t0.wf")
    assert l2_distance(fga0, proj)[0] <= 1e-8
    # with thresholding off the t = 0 output is the band operator exactly
    cfg.seed_threshold = 0.0
    pipeline.cmd_propagate(cfg)
    fga0 = WaveField.read(out / "psi_fga_t0.wf")
    assert l2_distance(fga0, proj)[0] <= 1e-10


def test_cmd_propagate_reconstruction_residual(config_file):
    """The residual reported once per run is that of a fresh reconstruction
    over the propagated bands, bit for bit."""
    from fgabloch.transform import phase_grid_for_field, reconstruct
    from fgabloch.wavefield import l2_distance
    path, _ = config_file
    cfg = RunConfig.from_text(path.read_text())
    cfg.t_final = 0.0
    cfg.checkpoints = (0.0,)
    cfg.bands = (1, 2)
    cfg.gap_guard_factor = 0.0             # band 2 fails the guard; at T = 0 it is only summed
    report = pipeline.cmd_propagate(cfg)
    table = pipeline.build_table(cfg, cfg.eps)
    psi0, _ = pipeline.build_initial(cfg, table, cfg.eps)
    psg = phase_grid_for_field(psi0, table, c_g=cfg.c_g, r_c=cfg.r_c)
    rec = reconstruct(psi0, table, cfg.bands, psg, r_c=cfg.r_c)
    assert (report.get_float("monitors", "reconstruction_residual")
            == l2_distance(rec, psi0)[0])


def test_cmd_reference(config_file):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    report = pipeline.cmd_reference(cfg)
    assert report.get_float("monitors", "norm_drift") <= 1e-10
    assert (out / "psi_ref_t0p2.wf").exists()


def test_reference_sizing_counts_fiber_propagators(config_file, monkeypatch):
    """At eps = 1/16, L = 2 and 4,096 points per cell the field and FFT work
    (~16 MiB) fit in 1 GiB, but the 32 fiber propagators of 4,096^2 complex
    entries (8 GiB) do not: every reference user refuses before any
    eigensolve."""
    from fgabloch import bloch, reference
    from fgabloch.errors import ResourceLimitError

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the sizing check")

    monkeypatch.setattr(bloch, "_cell_eigensolve", no_eigensolve)
    monkeypatch.setattr(reference, "_cell_eigensolve", no_eigensolve)
    path, _ = config_file
    cfg = RunConfig.from_text(path.read_text())
    cfg.ref_x_per_cell = 4096
    cfg.mem_limit_gb = 1.0
    cfg.compare_reference = True
    for cmd in (pipeline.cmd_reference, pipeline.cmd_propagate):
        with pytest.raises(ResourceLimitError):
            cmd(cfg)
    cfg.eps_list = (0.0625, 0.03125)
    with pytest.raises(ResourceLimitError):
        pipeline.cmd_convergence(cfg)


def _counting_build_table(monkeypatch):
    """Patch pipeline.build_table to record the Brillouin size of every table."""
    sizes, real = [], pipeline.build_table

    def counting(cfg, eps):
        table = real(cfg, eps)
        sizes.append(table.grid.nodes_per_axis)
        return table

    monkeypatch.setattr(pipeline, "build_table", counting)
    return sizes


def test_reference_commands_refuse_before_any_band_table(tmp_path, monkeypatch):
    """A 2D reference or convergence run is a configuration error raised
    before any band table is built, and so is a ladder whose finest rung
    exceeds the memory limit while the coarser one fits."""
    sizes = _counting_build_table(monkeypatch)
    cfg = RunConfig(dimension=2, length=1.0, eps_list=(0.25, 0.125), brillouin_m=32,
                    cutoff=3, n_bands=2, recon_bands=2, q0=0.5, p0=0.4,
                    out_dir=str(tmp_path))
    cfg.validate()
    with pytest.raises(ConfigError, match="one-dimensional"):
        pipeline.cmd_convergence(cfg)
    with pytest.raises(ConfigError, match="one-dimensional"):
        pipeline.cmd_reference(replace(cfg, eps_list=(0.25,)))
    # 1D, L = 2: 1,024 and 2,048 reference points need 2.6 and 5.3 MiB
    from fgabloch.errors import ResourceLimitError
    one_d = RunConfig(length=2.0, eps_list=(0.0625, 0.03125), mem_limit_gb=4e-3,
                      out_dir=str(tmp_path))
    with pytest.raises(ResourceLimitError, match="2048 points"):
        pipeline.cmd_convergence(one_d)
    assert sizes == []


def test_cmd_convergence_runs_propagate_stages(tmp_path, monkeypatch):
    """convergence.ini builds one band table per Brillouin size (M = 64 for
    eps = 1/16, 128 for 1/32 and 1/64), and its eps = 1/16 rung measures the
    same ||fga - ref|| as propagate with compare_reference, band 1 and T as
    the only checkpoint, bit for bit."""
    sizes = _counting_build_table(monkeypatch)
    distances, real = [], pipeline.l2_distance

    def recording(a, b):
        out = real(a, b)
        distances.append((a.n_x, out[0]))
        return out

    monkeypatch.setattr(pipeline, "l2_distance", recording)
    cfg = RunConfig.from_text((CONFIGS / "convergence.ini").read_text())
    report = pipeline.cmd_convergence(cfg, out_dir=str(tmp_path / "convergence"))
    assert sizes == [64, 128]
    assert report.get("errors", "status") == "PASS"
    n_ref = int(round(cfg.length / 0.0625)) * cfg.ref_x_per_cell
    rung = [d for n_x, d in distances if n_x == n_ref]
    assert len(rung) == 1
    distances.clear()
    prop = cfg.apply_overrides(["numerics.eps_list=0.0625", "run.compare_reference=true",
                                f"run.checkpoints={cfg.t_final!r}"])
    assert prop.bands == (1,) and prop.checkpoint_times() == [cfg.t_final]
    pipeline.cmd_propagate(prop, out_dir=str(tmp_path / "propagate"))
    assert [d for n_x, d in distances if n_x == n_ref] == rung


@pytest.mark.parametrize("setting", ["run.checkpoints=0.25", "run.bands=1,2"])
def test_cli_convergence_refuses_ignored_settings(setting, tmp_path, monkeypatch, capsys):
    """The ladder compares one band at T: run.checkpoints and a second band
    would be ignored, so either exits with the configuration code 2 before
    any band table is built."""
    sizes = _counting_build_table(monkeypatch)
    code = main(["convergence", "--config", str(CONFIGS / "convergence.ini"),
                 "--out", str(tmp_path), "--set", setting])
    assert code == 2 and sizes == []
    assert setting.split("=")[0] in capsys.readouterr().err


def test_cmd_convergence_validation(config_file):
    path, _ = config_file
    cfg = RunConfig.from_text(path.read_text())
    with pytest.raises(ConfigError):
        pipeline.cmd_convergence(cfg)          # single eps
    cfg.eps_list = (0.0625, 0.02)
    with pytest.raises(ConfigError):
        pipeline.cmd_convergence(cfg)          # not halving


def test_wavefield_file_initial(config_file, tmp_path):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    table = pipeline.build_table(cfg, cfg.eps)
    psi0, _ = pipeline.build_initial(cfg, table, cfg.eps)
    wf_in = tmp_path / "init.wf"
    psi0.write(wf_in)
    cfg.initial_type = "wavefield-file"
    cfg.initial_file = str(wf_in)
    report = pipeline.cmd_decompose(cfg)
    assert report.get_float("monitors", "reconstruction_rel") <= 1e-3


# --- CLI exit codes --------------------------------------------------------------

def test_cli_success_and_exit_codes(config_file, tmp_path, capsys):
    path, out = config_file
    assert main(["bands", "--config", str(path)]) == 0
    # configuration error -> 2
    assert main(["bands", "--config", str(path), "--set", "numerics.M=48"]) == 2
    # missing config file -> 2
    assert main(["bands", "--config", str(tmp_path / "missing.ini")]) == 2
    # isolation failure (V = 0 band 2 crosses at xi = 0) -> 3
    code = main(["bands", "--config", str(path), "--set", "potential.lattice_spec=zero",
                 "--set", "run.bands=2", "--set", "tolerances.gap_guard_factor=10"])
    assert code == 3
    err = capsys.readouterr().err
    assert "band 2" in err and "xi" in err
    # resource refusal -> 4
    code = main(["reference", "--config", str(path),
                 "--set", "tolerances.mem_limit_gb=1e-6"])
    assert code == 4


def test_cli_thread_settings_are_configuration_errors(config_file):
    """BLAS threads are set in the environment: a `threads` key in the file or
    in --set, and a --threads flag, all exit with the configuration code 2."""
    path, _ = config_file
    assert main(["bands", "--config", str(path), "--set", "run.threads=1"]) == 2
    path.write_text(path.read_text().replace("[run]\n", "[run]\nthreads = 1\n"))
    assert "threads = 1" in path.read_text()
    assert main(["bands", "--config", str(path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--config", str(path), "--threads", "1"])
    assert exc.value.code == 2


def test_cli_report_command(config_file, capsys):
    path, out = config_file
    assert main(["bands", "--config", str(path)]) == 0
    assert main(["report", str(out / "report_bands.txt")]) == 0
    text = capsys.readouterr().out
    assert "round-trip: ok" in text and "holonomy_band1" in text


def test_cli_propagate_deterministic(config_file):
    path, out = config_file
    assert main(["propagate", "--config", str(path)]) == 0
    first = (out / "psi_fga_t0p2.wf").read_bytes()
    assert main(["propagate", "--config", str(path)]) == 0
    assert (out / "psi_fga_t0p2.wf").read_bytes() == first


def test_cli_convergence_small(config_file):
    """Tiny two-point eps ladder through the CLI (coarse tolerances)."""
    path, out = config_file
    code = main(["convergence", "--config", str(path),
                 "--set", "numerics.eps_list=0.0625,0.03125",
                 "--set", "run.T=0.2"])
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "eps,rel_error,observed_order,flag"
    assert len(lines) == 3
    rep = RunReport.from_text((out / "report_convergence.txt").read_text())
    assert rep.get("errors", "status") in ("PASS", "floor")


def test_cli_convergence_quadratic_floor(config_file):
    """V = 0, U = 0: leading FGA is exact for quadratic h, so errors sit at
    the quadrature floor and the order column carries the floor flag."""
    path, out = config_file
    code = main(["convergence", "--config", str(path),
                 "--set", "potential.lattice_spec=zero",
                 "--set", "potential.external_spec=zero",
                 "--set", "numerics.eps_list=0.0625,0.03125",
                 "--set", "numerics.ref_dt_divisor=20",
                 "--set", "tolerances.gap_guard_factor=0",
                 "--set", "run.T=0.25"])
    assert code == 0
    rep = RunReport.from_text((out / "report_convergence.txt").read_text())
    assert rep.get("errors", "status") == "floor"
    for eps in (0.0625, 0.03125):
        assert rep.get_float("errors", f"E_eps_{eps!r}") <= 1e-6
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[2].endswith("floor,floor")
