"""Pipeline stages behind the CLI commands.

Each cmd_* function takes a validated RunConfig, runs the module chain,
writes its artifacts under the output directory, and returns a RunReport.
Outputs (CSV, wave-field binaries) are deterministic for a fixed config and
single-threaded numerics; reports additionally carry wall-clock timings.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager

import numpy as np

from .bloch import (BandTable, BrillouinGrid, band_isolation_check, dispersion_model,
                    prepare_band_table)
from .config import RunConfig, RunReport
from .dynamics import HamiltonianModel, integrate_ensemble
from .errors import ConfigError, NumericError, ResourceLimitError
from .reference import (ReferenceConfig, reference_bytes, reference_propagate,
                        reference_steps)
from .synthesis import SynthesisPlan, initial_snapshot, synthesize
from .transform import (_windowed_mass, band_projection, phase_grid_for_field,
                        windowed_bloch_transform)
from .wavefield import WaveField, gaussian_packet, l2_distance, write_csv


class StageTimer:
    """`with timer(name):` records the block's wall time under prefix + name;
    `timer.count(key, n)` adds n to the report's [work] counter key."""

    def __init__(self, report: RunReport, prefix: str = ""):
        self.report, self.prefix = report, prefix

    def count(self, key: str, n: int):
        self.report.put("work", key, n + int(self.report.sections.get("work", {}).get(key, 0)))

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        yield
        self.report.put("timings", self.prefix + name, f"{time.perf_counter() - t0:.3f}")


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
    return gaussian_packet(cfg.dimension, eps, cfg.length, n_x, q0=cfg.q0, p0=cfg.p0,
                           width=cfg.width, table=table, band=cfg.bands[0])


def _reference_config(cfg: RunConfig, eps: float) -> ReferenceConfig:
    """The reference run at eps, refused before any band table is built."""
    if cfg.dimension != 1:
        raise ConfigError(f"the reference solver is one-dimensional; got dimension = "
                          f"{cfg.dimension}")
    rcfg = ReferenceConfig(eps=eps, length=cfg.length,
                           n_x=int(round(cfg.length / eps)) * cfg.ref_x_per_cell,
                           dt=eps / cfg.ref_dt_divisor, lattice=cfg.lattice(),
                           external=cfg.external(), t_final=cfg.t_final)
    est_bytes = reference_bytes(rcfg)
    if est_bytes > cfg.mem_limit_gb * 2 ** 30:
        raise ResourceLimitError(
            f"reference grid of {rcfg.n_x} points needs ~{est_bytes / 2**30:.3g} GiB "
            f"(> limit {cfg.mem_limit_gb} GiB); lower ref_x_per_cell, L/eps, or "
            f"raise tolerances.mem_limit_gb")
    return rcfg


def write_band_csv(table: BandTable, path):
    d = table.grid.dimension
    nodes = table.grid.node_points()
    cols = (["band"] + [f"xi{a}" for a in range(d)] + ["E"]
            + [f"dE{a}" for a in range(d)] + [f"A{a}" for a in range(d)] + ["min_gap"])
    # one row per (band, node), the nodes of band 1 first
    n_nodes = table.grid.n_nodes
    write_csv(path, cols, [np.repeat(np.arange(1, table.n_bands + 1), n_nodes),
                           *np.tile(nodes, (table.n_bands, 1)).T, table.energies.T.ravel(),
                           *table.grad_e.transpose(2, 1, 0).reshape(d, -1),
                           *table.berry.transpose(2, 1, 0).reshape(d, -1),
                           np.repeat(table.min_gap, n_nodes)])


def write_psi2_csv(field: WaveField, path):
    d = field.dimension
    cols = (["x"] if d == 1 else [f"x{a}" for a in range(d)]) + ["psi2"]
    v = field.values.ravel()
    # |v|^2 as the scalar abs(v) ** 2 rounds it: np.abs and ** 2 on arrays
    # differ from it in the last bit of some cells, hypot and float_power do not
    write_csv(path, cols, [*field.grid_points().T, np.float_power(np.hypot(v.real, v.imag), 2)])


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


def _prepare_stage(cfg: RunConfig, eps: float, table: BandTable, timer: StageTimer):
    """Isolation check, initial field and one windowed transform per band of
    cfg.bands: (psi0, p_used, phase-space grid, band -> coefficients)."""
    for n in cfg.bands:
        band_isolation_check(table, n, cfg.gap_guard_factor)
    with timer("initial"):
        psi0, p_used = build_initial(cfg, table, eps)
    with timer("transform"):
        psg = phase_grid_for_field(psi0, table, c_g=cfg.c_g, r_c=cfg.r_c)
        coeffs = {n: windowed_bloch_transform(psi0, table, n, psg, r_c=cfg.r_c)
                  for n in cfg.bands}
    return psi0, p_used, psg, coeffs


def _report_prepared(report: RunReport, table: BandTable, p_used):
    report.put("monitors", "M", table.grid.nodes_per_axis)
    report.put("monitors", "berry_im_diag", table.berry_im_diag)
    if p_used is not None:
        report.put("monitors", "p0_used", " ".join(repr(float(v)) for v in p_used))


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (ru_maxrss is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _synthesize(timer: StageTimer, plan: SynthesisPlan, counter="synthesis_window_points"):
    """synthesize(plan), counting the grid points its windows add onto under
    the [work] key `counter`."""
    timer.count(counter, plan.seeds.count
                * min(plan.span, plan.out_n_x) ** plan.table.grid.dimension)
    return synthesize(plan)


def _evolve_stage(cfg: RunConfig, table: BandTable, psi0: WaveField, psg, coeffs,
                  rcfg, checkpoints, timer: StageTimer):
    """Integrate each band of cfg.bands and synthesize it at every checkpoint
    on psi0's grid; if rcfg is given, the first band is synthesized on the
    reference grid instead and compared with the reference run from its
    projection.  Returns band -> (seeds, EnsembleResult),
    t -> [field per band], t -> l2_distance."""
    # reference first: no ensemble is alive during its fine-grid projection,
    # whose operator blocks hold at most 2^18 p-node/grid-point pairs; on
    # convergence.ini the reference's fiber arrays (reference_bytes) tie with
    # the transform's blocks, about 17 MB traced each, for the peak
    refs, compared_n_x = {}, psi0.n_x
    if rcfg is not None:
        with timer("reference"):
            proj = band_projection(psi0, table, cfg.bands[0], psg, r_c=cfg.r_c,
                                   coefficients=coeffs[cfg.bands[0]], out_n_x=rcfg.n_x)
            refs = reference_propagate(proj, rcfg, checkpoint_times=checkpoints)
        compared_n_x = rcfg.n_x
    results, pot = {}, cfg.external()
    with timer("integrate"):
        for n in cfg.bands:
            seeds = coeffs[n].to_seeds(cfg.seed_threshold)
            model = HamiltonianModel(dispersion_model(table, n), pot)
            results[n] = (seeds, integrate_ensemble(
                seeds, model, T=cfg.t_final, dt=cfg.dt,
                checkpoint_times=checkpoints, enable_a1=cfg.a1))
            timer.count("traj_steps", seeds.count * results[n][1].steps)
    fields, distances = {}, {}
    with timer("synthesize"):
        for t in checkpoints:
            fields[t] = [_synthesize(timer, SynthesisPlan(
                table=table, band=n, seeds=seeds, snapshot=res.at(t), length=cfg.length,
                out_n_x=compared_n_x if n == cfg.bands[0] else psi0.n_x, r_c=cfg.r_c))
                for n, (seeds, res) in results.items()]
            if refs:
                distances[t] = l2_distance(fields[t][0], refs[t])
    return results, fields, distances


def cmd_decompose(cfg: RunConfig, out_dir=None) -> RunReport:
    """Windowed decomposition: coefficient CSVs, Parseval and reconstruction diagnostics."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "decompose")
    timer = StageTimer(report)
    eps = cfg.eps
    with timer("bands"):
        table = build_table(cfg, eps)
    psi0, p_used, psg, coeffs = _prepare_stage(cfg, eps, table, timer)
    _report_prepared(report, table, p_used)
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
    rcfg = _reference_config(cfg, eps) if cfg.compare_reference else None
    with timer("bands"):
        table = build_table(cfg, eps)
    psi0, p_used, psg, coeffs = _prepare_stage(cfg, eps, table, timer)
    _report_prepared(report, table, p_used)
    if rcfg is not None and rcfg.n_x % psi0.n_x:
        raise ConfigError(f"reference grid {rcfg.n_x} not a multiple of initial field {psi0.n_x}")
    checkpoints = cfg.checkpoint_times()

    # t = 0 consistency against the band operator, full (unthresholded) seeds;
    # the band projections also give the time-independent truncation residual
    with timer("t0_consistency"):
        projs = {n: band_projection(psi0, table, n, psg, r_c=cfg.r_c, coefficients=coeffs[n])
                 for n in cfg.bands}
        recon_resid = l2_distance(psi0.with_values(sum(p.values for p in projs.values())),
                                  psi0)[0]
    with timer("t0_synthesize"):
        t0_err = 0.0
        for n in cfg.bands:
            seeds_full = coeffs[n].to_seeds(0.0)
            f0 = _synthesize(timer, SynthesisPlan(
                table=table, band=n, seeds=seeds_full, snapshot=initial_snapshot(seeds_full),
                length=cfg.length, out_n_x=psi0.n_x, r_c=cfg.r_c),
                counter="t0_synthesis_window_points")
            t0_err = max(t0_err, l2_distance(f0, projs[n])[0])
    report.put("monitors", "t0_consistency", t0_err)
    if t0_err > 1e-10:
        raise NumericError(
            f"t=0 synthesis deviates from the band operator by {t0_err:.3e} > 1e-10")

    results, fields, distances = _evolve_stage(cfg, table, psi0, psg, coeffs, rcfg,
                                               checkpoints, timer)
    for n, (seeds, _) in results.items():
        report.put("monitors", f"seeds_band{n}", seeds.count)
        report.put("monitors", f"grid_points_band{n}", seeds.total_points)
    report.put("monitors", "max_sympl_residual",
               max(res.max_sympl_residual for _, res in results.values()))
    report.put("monitors", "min_sigma_z",
               min(res.min_sigma_z for _, res in results.values()))
    report.put("monitors", "failed_trajectories",
               sum(res.n_failed for _, res in results.values()))
    if rcfg is not None:
        report.put("monitors", "reference_steps", reference_steps(rcfg, checkpoints))

    # psi_fga_* is the band sum on psi0's grid, the compared band subsampled
    # from the reference grid
    with timer("export"):
        for t in checkpoints:
            label = _fga_time_label(t)
            if t in distances:
                report.put("errors", f"vs_reference_t{label}", distances[t][1])
            fga = fields[t][0].with_values(
                sum(f.values[::f.n_x // psi0.n_x] for f in fields[t]))
            fga.write(os.path.join(out, f"psi_fga_t{label}.wf"))
            write_psi2_csv(fga, os.path.join(out, f"psi2_fga_t{label}.csv"))
            for n, (_, res) in results.items():
                res.export_csv(t, os.path.join(out, f"traj_band{n}_t{label}.csv"))
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
    rcfg = _reference_config(cfg, eps)
    with timer("bands"):
        table = build_table(cfg, eps)
    with timer("initial"):
        psi0 = _trig_resample(build_initial(cfg, table, eps, rcfg.n_x)[0], rcfg.n_x)
    checkpoints = cfg.checkpoint_times()
    with timer("propagate"):
        refs = reference_propagate(psi0, rcfg, checkpoint_times=checkpoints)
    report.put("monitors", "reference_steps", reference_steps(rcfg, checkpoints))
    for t in checkpoints:
        refs[t].write(os.path.join(out, f"psi_ref_t{_fga_time_label(t)}.wf"))
        write_psi2_csv(refs[t], os.path.join(out, f"psi2_ref_t{_fga_time_label(t)}.csv"))
    report.put("monitors", "norm_drift", abs(refs[cfg.t_final].norm() - psi0.norm()))
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
    return field.with_values(np.fft.ifft(out) * (n_x / m))


def cmd_convergence(cfg: RunConfig, out_dir=None) -> RunReport:
    """FGA vs reference over an eps ladder; observed-order table and PASS flag.

    Each rung runs propagate's stages for the one band of run.bands, with T
    as the only checkpoint; rungs of one Brillouin size share their band
    table.  The error of a rung is ||fga - ref|| / ||psi0||.  Settings the
    ladder would ignore (run.checkpoints, a second band) are refused.
    """
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = _new_report(cfg, "convergence")
    if len(cfg.eps_list) < 2:
        raise ConfigError("convergence needs an eps list of at least 2 halving values")
    eps_list = sorted(cfg.eps_list, reverse=True)
    for a, b in zip(eps_list, eps_list[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigError(f"eps list must halve: got {a} -> {b}")
    if cfg.checkpoints:
        raise ConfigError(f"convergence compares at T only; run.checkpoints = "
                          f"{list(cfg.checkpoints)} would be ignored")
    if len(cfg.bands) != 1:
        raise ConfigError(f"convergence measures one band; run.bands = {list(cfg.bands)}")
    rcfgs = [_reference_config(cfg, eps) for eps in eps_list]
    table, errors = None, []
    for eps, rcfg in zip(eps_list, rcfgs):
        t_eps0 = time.perf_counter()
        timer = StageTimer(report, prefix=f"eps_{eps!r}.")
        # M is nondecreasing down the ladder, and the table depends on eps only through M
        if table is None or table.grid.nodes_per_axis != effective_m(cfg, eps):
            with timer("bands"):
                table = build_table(cfg, eps)
        psi0, _, psg, coeffs = _prepare_stage(cfg, eps, table, timer)
        results, _, distances = _evolve_stage(cfg, table, psi0, psg, coeffs, rcfg,
                                              [cfg.t_final], timer)
        res = results[cfg.bands[0]][1]
        errors.append(distances[cfg.t_final][0] / psi0.norm())
        report.put("monitors", f"reference_steps_eps_{eps!r}", reference_steps(rcfg))
        report.put("monitors", f"sympl_eps_{eps!r}", res.max_sympl_residual)
        report.put("monitors", f"sigma_min_eps_{eps!r}", res.min_sigma_z)
        report.put("timings", f"eps_{eps!r}", f"{time.perf_counter() - t_eps0:.3f}")
        report.put("work", f"peak_rss_mb_eps_{eps!r}", _peak_rss_mb())

    rows, orders = [], []
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

    write_csv(os.path.join(out, "convergence.csv"),
              ["eps", "rel_error", "observed_order", "flag"], list(zip(*rows)))
    for eps, err, order, flag in rows:
        report.put("errors", f"E_eps_{eps!r}", err)
    report.put("errors", "mean_order", mean_order)
    report.put("errors", "status", status)
    _write_report(report, out, "convergence")
    return report


_PROC_STATUS = "/proc/self/status"


def _threads_effective():
    """OS threads of this process now (BLAS pools included), read from
    /proc/self/status; 'unavailable' where that file is absent."""
    try:
        with open(_PROC_STATUS) as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return "unavailable"


def _write_report(report: RunReport, out_dir, command):
    report.put("meta", "threads_effective", _threads_effective())
    report.put("work", "peak_rss_mb", _peak_rss_mb())
    with open(os.path.join(out_dir, f"report_{command}.txt"), "w") as fh:
        fh.write(report.to_text())


def load_report(path) -> RunReport:
    with open(path) as fh:
        return RunReport.from_text(fh.read())
