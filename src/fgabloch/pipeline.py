"""Pipeline stages behind the CLI commands.

Each cmd_* function takes a validated RunConfig, runs the module chain,
writes its artifacts under the output directory, and returns a RunReport.
Outputs (CSV, wave-field binaries) are deterministic for a fixed config and
single-threaded numerics; reports additionally carry wall-clock timings.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .bloch import (BandTable, BrillouinGrid, band_isolation_check, dispersion_model,
                    prepare_band_table)
from .config import RunConfig, RunReport
from .dynamics import HamiltonianModel, integrate_ensemble
from .errors import ConfigError, NumericError, ResourceLimitError
from .reference import ReferenceConfig, reference_propagate, reference_steps
from .synthesis import SynthesisPlan, initial_snapshot, synthesize
from .transform import (_windowed_mass, band_projection, phase_grid_for_field,
                        windowed_bloch_transform)
from .wavefield import WaveField, gaussian_packet, l2_distance


class StageTimer:
    def __init__(self, report: RunReport):
        self.report = report

    def __call__(self, name):
        return _Timing(self.report, name)


class _Timing:
    def __init__(self, report, name):
        self.report, self.name = report, name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.put("timings", self.name,
                        f"{time.perf_counter() - self.t0:.3f}")
        return False


def effective_m(cfg: RunConfig, eps: float) -> int:
    """Brillouin nodes per axis honoring dp <= c_g sqrt(eps) when m_auto."""
    m = cfg.brillouin_m
    if cfg.m_auto:
        need = 2 * np.pi / (cfg.c_g * np.sqrt(eps))
        while m < need:
            m *= 2
    return m


def build_table(cfg: RunConfig, eps: float) -> BandTable:
    return prepare_band_table(BrillouinGrid(cfg.dimension, effective_m(cfg, eps)),
                              cfg.lattice(), cfg.n_bands, cfg.cutoff, strict_bands=cfg.bands)


def build_initial(cfg: RunConfig, table: BandTable, eps: float, n_x: int = None):
    """Initial wave field (unit L2 norm) and the packet momentum actually used.

    A Gaussian packet is sampled on n_x points per axis (default: x_per_cell
    per lattice cell); a wave-field file keeps its own grid.
    """
    n_x = n_x or int(round(cfg.length / eps)) * cfg.x_per_cell
    if cfg.initial_type == "wavefield-file":
        field = WaveField.read(cfg.initial_file)
        if abs(field.eps - eps) > 1e-15 or abs(field.length - cfg.length) > 1e-12:
            raise NumericError("initial wavefield file does not match eps/L of the run")
        return field.with_values(field.values / field.norm()), None
    field, p_used = gaussian_packet(cfg.dimension, eps, cfg.length, n_x,
                                    q0=cfg.q0, p0=cfg.p0, width=cfg.width,
                                    table=table, band=cfg.bands[0])
    return field, p_used


def _reference_sizing_check(cfg: RunConfig, eps: float) -> int:
    n_x = int(round(cfg.length / eps)) * cfg.ref_x_per_cell
    # field + FFT work + phase tables, and the (L/eps) fiber propagators of
    # ref_x_per_cell^2 complex entries each
    est_bytes = n_x * 16 * 8 + n_x * cfg.ref_x_per_cell * 16
    if est_bytes > cfg.mem_limit_gb * 2 ** 30:
        raise ResourceLimitError(
            f"reference grid of {n_x} points needs ~{est_bytes / 2**30:.3g} GiB "
            f"(> limit {cfg.mem_limit_gb} GiB); lower ref_x_per_cell, L/eps, or "
            f"raise tolerances.mem_limit_gb")
    return n_x


def write_band_csv(table: BandTable, path):
    d = table.grid.dimension
    nodes = table.grid.node_points()
    cols = (["band"] + [f"xi{a}" for a in range(d)] + ["E"]
            + [f"dE{a}" for a in range(d)] + [f"A{a}" for a in range(d)] + ["min_gap"])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for n in range(table.n_bands):
            for j in range(table.grid.n_nodes):
                row = ([n + 1] + list(nodes[j]) + [table.energies[j, n]]
                       + list(table.grad_e[j, n]) + list(table.berry[j, n])
                       + [table.min_gap[n]])
                fh.write(",".join(repr(float(v)) if not isinstance(v, int) else str(v)
                                  for v in row) + "\n")


def write_psi2_csv(field: WaveField, path):
    d = field.dimension
    with open(path, "w") as fh:
        fh.write(",".join(["x"] if d == 1 else [f"x{a}" for a in range(d)]) + ",psi2\n")
        for x, v in zip(field.grid_points(), field.values.ravel()):
            fh.write(",".join(repr(float(c)) for c in (*x, abs(v) ** 2)) + "\n")


def _new_report(cfg: RunConfig, command: str) -> RunReport:
    report = RunReport()
    report.put("meta", "command", command)
    report.put("meta", "package", "fgabloch")
    report.embed_config(cfg)
    return report


def cmd_bands(cfg: RunConfig, out_dir=None) -> RunReport:
    """Band structure computation: CSV export plus the gap/isolation report."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "bands")
    timer = StageTimer(report)
    eps = cfg.eps_list[0]
    with timer("bands"):
        table = build_table(cfg, eps)
    report.put("monitors", "M", table.grid.nodes_per_axis)
    report.put("monitors", "berry_im_diag", table.berry_im_diag)
    report.put("monitors", "grad_fd_discrepancy", table.grad_fd_discrepancy)
    for n in range(1, table.n_bands + 1):
        report.put("monitors", f"min_gap_band{n}", table.min_gap[n - 1])
        report.put("monitors", f"min_gap_xi_band{n}",
                   " ".join(repr(float(v)) for v in table.min_gap_xi[n - 1]))
        report.put("monitors", f"holonomy_band{n}",
                   " ".join(repr(float(v)) for v in table.holonomy[n - 1]))
    with timer("export"):
        write_band_csv(table, os.path.join(out, "bands.csv"))
    for n in cfg.bands:
        band_isolation_check(table, n, cfg.gap_guard_factor)
    report.put("monitors", "isolation", "pass")
    _write_report(report, out, "bands")
    return report


def _prepare_stage(cfg: RunConfig, eps: float, report: RunReport, timer: StageTimer):
    with timer("bands"):
        table = build_table(cfg, eps)
    for n in cfg.bands:
        band_isolation_check(table, n, cfg.gap_guard_factor)
    with timer("initial"):
        psi0, p_used = build_initial(cfg, table, eps)
    with timer("transform"):
        psg = phase_grid_for_field(psi0, table, c_g=cfg.c_g, r_c=cfg.r_c)
        coeffs = {n: windowed_bloch_transform(psi0, table, n, psg, r_c=cfg.r_c)
                  for n in cfg.bands}
    report.put("monitors", "M", table.grid.nodes_per_axis)
    report.put("monitors", "berry_im_diag", table.berry_im_diag)
    if p_used is not None:
        report.put("monitors", "p0_used", " ".join(repr(float(v)) for v in p_used))
    return table, psi0, psg, coeffs


def cmd_decompose(cfg: RunConfig, out_dir=None) -> RunReport:
    """Windowed decomposition: coefficient CSVs, Parseval and reconstruction diagnostics."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "decompose")
    timer = StageTimer(report)
    eps = cfg.eps
    table, psi0, psg, coeffs = _prepare_stage(cfg, eps, report, timer)
    with timer("export"):
        for n, wc in coeffs.items():
            wc.export_csv(os.path.join(out, f"coeffs_band{n}.csv"))
    # one transform per band serves the Parseval mass and the reconstruction
    with timer("parseval"):
        recon = {n: coeffs[n] if n in coeffs else
                 windowed_bloch_transform(psi0, table, n, psg, r_c=cfg.r_c)
                 for n in range(1, cfg.recon_bands + 1)}
        norm2, mass = psi0.norm() ** 2, _windowed_mass(recon.values())
    with timer("reconstruction"):
        rec = np.zeros_like(psi0.values)
        for n, wc in recon.items():
            rec = rec + band_projection(psi0, table, n, psg, r_c=cfg.r_c,
                                        coefficients=wc).values
        resid, rel = l2_distance(psi0.with_values(rec), psi0)
    report.put("monitors", "norm2", norm2)
    report.put("monitors", "windowed_mass", mass)
    report.put("monitors", "windowed_mass_ratio", mass / norm2)
    report.put("monitors", "reconstruction_residual", resid)
    report.put("monitors", "reconstruction_rel", rel)
    for n, wc in coeffs.items():
        seeds = wc.to_seeds(cfg.seed_threshold)
        report.put("monitors", f"seeds_band{n}", seeds.count)
        report.put("monitors", f"grid_points_band{n}", seeds.total_points)
    _write_report(report, out, "decompose")
    return report


def _fga_time_label(t: float) -> str:
    return ("%.6f" % t).rstrip("0").rstrip(".").replace(".", "p").replace("-", "m")


def cmd_propagate(cfg: RunConfig, out_dir=None) -> RunReport:
    """Decompose -> integrate -> synthesize at every checkpoint."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "propagate")
    timer = StageTimer(report)
    eps = cfg.eps
    compare = cfg.compare_reference and cfg.dimension == 1
    n_x = _reference_sizing_check(cfg, eps) if compare else None
    table, psi0, psg, coeffs = _prepare_stage(cfg, eps, report, timer)
    if compare and n_x % psi0.n_x:
        raise ConfigError(f"reference grid {n_x} not a multiple of initial field {psi0.n_x}")
    checkpoints = cfg.checkpoint_times()
    model_pot = cfg.external()

    # t = 0 consistency against the band operator, full (unthresholded) seeds;
    # the band projections also give the time-independent truncation residual
    with timer("t0_consistency"):
        t0_err = 0.0
        rec = np.zeros_like(psi0.values)
        for n in cfg.bands:
            proj = band_projection(psi0, table, n, psg, r_c=cfg.r_c,
                                   coefficients=coeffs[n])
            rec = rec + proj.values
            seeds_full = coeffs[n].to_seeds(0.0)
            plan0 = SynthesisPlan(table=table, band=n, seeds=seeds_full,
                                  snapshot=initial_snapshot(seeds_full),
                                  length=cfg.length, out_n_x=psi0.n_x, r_c=cfg.r_c)
            f0 = synthesize(plan0)
            t0_err = max(t0_err, l2_distance(f0, proj)[0])
        recon_resid = l2_distance(psi0.with_values(rec), psi0)[0]
    report.put("monitors", "t0_consistency", t0_err)
    if t0_err > 1e-10:
        raise NumericError(
            f"t=0 synthesis deviates from the band operator by {t0_err:.3e} > 1e-10")

    results = {}
    with timer("integrate"):
        for n in cfg.bands:
            seeds = coeffs[n].to_seeds(cfg.seed_threshold)
            report.put("monitors", f"seeds_band{n}", seeds.count)
            report.put("monitors", f"grid_points_band{n}", seeds.total_points)
            model = HamiltonianModel(dispersion_model(table, n), model_pot)
            results[n] = (seeds, integrate_ensemble(
                seeds, model, T=cfg.t_final, dt=cfg.dt,
                checkpoint_times=checkpoints, enable_a1=cfg.a1))
    report.put("monitors", "max_sympl_residual",
               max(res.max_sympl_residual for _, res in results.values()))
    report.put("monitors", "min_sigma_z",
               min(res.min_sigma_z for _, res in results.values()))
    report.put("monitors", "failed_trajectories",
               sum(res.n_failed for _, res in results.values()))

    if compare:
        with timer("reference"):
            proj_ref = band_projection(psi0, table, cfg.bands[0], psg, r_c=cfg.r_c,
                                       coefficients=coeffs[cfg.bands[0]], out_n_x=n_x)
            rcfg = ReferenceConfig(eps=eps, length=cfg.length, n_x=n_x,
                                   dt=eps / cfg.ref_dt_divisor, lattice=cfg.lattice(),
                                   external=model_pot, t_final=cfg.t_final)
            refs = reference_propagate(proj_ref, rcfg, checkpoint_times=checkpoints)
        report.put("monitors", "reference_steps", reference_steps(rcfg, checkpoints))

    # one synthesis per band and checkpoint, on the reference grid when comparing
    # with it; psi_fga_* take the fine field subsampled
    out_n_x = n_x if compare else psi0.n_x
    with timer("synthesize"):
        for t in checkpoints:
            fields = [synthesize(SynthesisPlan(
                table=table, band=n, seeds=results[n][0], snapshot=results[n][1].at(t),
                length=cfg.length, out_n_x=out_n_x, r_c=cfg.r_c)) for n in cfg.bands]
            label = _fga_time_label(t)
            if compare:
                report.put("errors", f"vs_reference_t{label}",
                           l2_distance(fields[0], refs[t])[1])
            total = sum(f.values for f in fields)
            fga = fields[0].with_values(total[::out_n_x // psi0.n_x])
            fga.write(os.path.join(out, f"psi_fga_t{label}.wf"))
            write_psi2_csv(fga, os.path.join(out, f"psi2_fga_t{label}.csv"))
            for n in cfg.bands:
                results[n][1].export_csv(t, os.path.join(out, f"traj_band{n}_t{label}.csv"))
    report.put("monitors", "reconstruction_residual", recon_resid)
    _write_report(report, out, "propagate")
    return report


def cmd_reference(cfg: RunConfig, out_dir=None) -> RunReport:
    """Fine-grid Bloch-decomposition reference run with checkpoint outputs.

    The lattice part is exact per Bloch fiber; only U is split, at
    dt = eps / ref_dt_divisor (one step per checkpoint segment when U = 0).
    """
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "reference")
    timer = StageTimer(report)
    eps = cfg.eps
    n_x = _reference_sizing_check(cfg, eps)
    with timer("bands"):
        table = build_table(cfg, eps)
    with timer("initial"):
        psi0 = _trig_resample(build_initial(cfg, table, eps, n_x)[0], n_x)
    rcfg = ReferenceConfig(eps=eps, length=cfg.length, n_x=n_x,
                           dt=eps / cfg.ref_dt_divisor, lattice=cfg.lattice(),
                           external=cfg.external(), t_final=cfg.t_final)
    checkpoints = cfg.checkpoint_times()
    with timer("propagate"):
        refs = reference_propagate(psi0, rcfg, checkpoint_times=checkpoints)
    report.put("monitors", "reference_steps", reference_steps(rcfg, checkpoints))
    norm0 = psi0.norm()
    for t in checkpoints:
        f = refs[t]
        f.write(os.path.join(out, f"psi_ref_t{_fga_time_label(t)}.wf"))
        write_psi2_csv(f, os.path.join(out, f"psi2_ref_t{_fga_time_label(t)}.csv"))
    report.put("monitors", "norm_drift", abs(refs[cfg.t_final].norm() - norm0))
    _write_report(report, out, "reference")
    return report


def _trig_resample(field: WaveField, n_x: int) -> WaveField:
    """Exact trigonometric upsampling of a periodic field (d = 1)."""
    if n_x == field.n_x:
        return field
    if n_x < field.n_x:
        raise NumericError("refusing to downsample a wave field")
    spec = np.fft.fft(field.values)
    out = np.zeros(n_x, dtype=complex)
    m = field.n_x
    out[: m // 2] = spec[: m // 2]
    out[-(m // 2):] = spec[-(m // 2):]
    vals = np.fft.ifft(out) * (n_x / m)
    return WaveField(dimension=1, eps=field.eps, length=field.length,
                     values=vals, time=field.time)


def cmd_convergence(cfg: RunConfig, out_dir=None) -> RunReport:
    """FGA vs reference over an eps ladder; observed-order table and PASS flag."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "convergence")
    timer = StageTimer(report)
    if len(cfg.eps_list) < 2:
        raise ConfigError("convergence needs an eps list of at least 2 halving values")
    eps_list = sorted(cfg.eps_list, reverse=True)
    for a, b in zip(eps_list, eps_list[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigError(f"eps list must halve: got {a} -> {b}")
    band = cfg.bands[0]
    pot = cfg.external()
    lattice = cfg.lattice()
    errors = []
    for eps in eps_list:
        t_eps0 = time.perf_counter()
        n_x_ref = _reference_sizing_check(cfg, eps)
        table = build_table(cfg, eps)
        band_isolation_check(table, band, cfg.gap_guard_factor)
        psi0, _ = build_initial(cfg, table, eps)
        psg = phase_grid_for_field(psi0, table, c_g=cfg.c_g, r_c=cfg.r_c)
        wc = windowed_bloch_transform(psi0, table, band, psg, r_c=cfg.r_c)
        seeds = wc.to_seeds(cfg.seed_threshold)
        proj_ref = band_projection(psi0, table, band, psg, r_c=cfg.r_c,
                                   coefficients=wc, out_n_x=n_x_ref)
        rcfg = ReferenceConfig(eps=eps, length=cfg.length, n_x=n_x_ref,
                               dt=eps / cfg.ref_dt_divisor, lattice=lattice,
                               external=pot, t_final=cfg.t_final)
        ref = reference_propagate(proj_ref, rcfg)
        report.put("monitors", f"reference_steps_eps_{eps!r}", reference_steps(rcfg))
        model = HamiltonianModel(dispersion_model(table, band), pot)
        res = integrate_ensemble(seeds, model, T=cfg.t_final, dt=cfg.dt,
                                 enable_a1=cfg.a1)
        plan = SynthesisPlan(table=table, band=band, seeds=seeds,
                             snapshot=res.at(cfg.t_final), length=cfg.length,
                             out_n_x=n_x_ref, r_c=cfg.r_c)
        fga = synthesize(plan)
        err = l2_distance(fga, ref)[0] / psi0.norm()
        errors.append(err)
        report.put("monitors", f"sympl_eps_{eps!r}", res.max_sympl_residual)
        report.put("monitors", f"sigma_min_eps_{eps!r}", res.min_sigma_z)
        report.put("timings", f"eps_{eps!r}", f"{time.perf_counter() - t_eps0:.3f}")

    rows = []
    orders = []
    for i, eps in enumerate(eps_list):
        flag = "floor" if errors[i] <= cfg.floor_tol else ""
        order = ""
        if i > 0:
            o = float(np.log2(errors[i - 1] / errors[i]))
            if errors[i] > cfg.floor_tol and errors[i - 1] > cfg.floor_tol:
                orders.append(o)
                order = repr(o)
            else:
                order = "floor"
        rows.append((eps, errors[i], order, flag))
    mean_order = float(np.mean(orders)) if orders else float("nan")
    passed = bool(orders) and mean_order >= 0.8
    status = "PASS" if passed else ("floor" if not orders else "FAIL")

    with open(os.path.join(out, "convergence.csv"), "w") as fh:
        fh.write("eps,rel_error,observed_order,flag\n")
        for eps, err, order, flag in rows:
            fh.write(f"{eps!r},{err!r},{order},{flag}\n")
    for eps, err, order, flag in rows:
        report.put("errors", f"E_eps_{eps!r}", err)
    report.put("errors", "mean_order", mean_order)
    report.put("errors", "status", status)
    _write_report(report, out, "convergence")
    return report


def _write_report(report: RunReport, out_dir, command):
    with open(os.path.join(out_dir, f"report_{command}.txt"), "w") as fh:
        fh.write(report.to_text())


def load_report(path) -> RunReport:
    with open(path) as fh:
        return RunReport.from_text(fh.read())
