import os

import numpy as np
import pytest

from fgabloch.cli import main
from fgabloch.config import RunConfig, RunReport
from fgabloch.errors import ConfigError
from fgabloch import pipeline

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


def test_cmd_propagate_t0_equals_projection(config_file, tmp_path):
    path, out = config_file
    cfg = RunConfig.from_text(path.read_text())
    cfg.t_final = 0.0
    cfg.checkpoints = (0.0,)
    from fgabloch.wavefield import WaveField, l2_distance
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


def test_cli_report_command(config_file, capsys):
    path, out = config_file
    assert main(["bands", "--config", str(path)]) == 0
    assert main(["report", str(out / "report_bands.txt")]) == 0
    text = capsys.readouterr().out
    assert "round-trip: ok" in text and "holonomy_band1" in text


def test_cli_propagate_deterministic(config_file):
    path, out = config_file
    assert main(["propagate", "--config", str(path), "--threads", "1"]) == 0
    first = (out / "psi_fga_t0p2.wf").read_bytes()
    assert main(["propagate", "--config", str(path), "--threads", "1"]) == 0
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
