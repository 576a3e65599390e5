"""Wave fields on the periodic computational domain, their binary format,
and the CSV row writer every text export shares.

A WaveField holds complex samples of the wave function on a uniform grid
over the torus [0, L)^d (no duplicated endpoint), tagged with epsilon and
time.  L/epsilon must be an integer so the lattice potential V(x/eps) is
exactly periodic on the domain.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatchError, InvalidInputError

MAGIC = b"FGAWF1"


def mesh_points(axes) -> np.ndarray:
    """Points of the tensor grid over `axes`, shape (prod of sizes, d), C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def write_csv(path, header, columns):
    """A header line, then one line per row of the equal-length `columns`.
    Each column is formatted whole: integer and string columns as their
    cells print, every other column as the repr of each Python float (exact
    under float())."""
    cells = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind in "iuU":
            cells.append(map(str, col.tolist()))
        else:
            cells.append(map(repr, col.astype(float).tolist()))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _check_int_ratio(L: float, eps: float):
    ratio = L / eps
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise InvalidInputError(f"L/eps = {ratio} is not an integer")
    return int(round(ratio))


@dataclass(frozen=True)
class WaveField:
    dimension: int
    eps: float
    length: float
    values: np.ndarray          # complex, shape (n_x,)*d
    time: float = 0.0

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise InvalidInputError(f"eps must lie in (0, 1], got {self.eps}")
        _check_int_ratio(self.length, self.eps)
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != self.dimension:
            raise InvalidInputError("values rank does not match dimension")
        if any(s != v.shape[0] for s in v.shape):
            raise InvalidInputError("values must be square across axes")
        object.__setattr__(self, "values", v)

    @property
    def n_x(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return self.length / self.n_x

    @property
    def cells(self) -> int:
        """Number of lattice periods across the domain, L/eps."""
        return _check_int_ratio(self.length, self.eps)

    def axis_points(self) -> np.ndarray:
        return self.dx * np.arange(self.n_x)

    def grid_points(self) -> np.ndarray:
        """All sample locations, shape (n_x^d, d)."""
        return mesh_points([self.axis_points()] * self.dimension)

    def norm(self) -> float:
        """L2 norm by the rectangle rule."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx ** self.dimension))

    def same_grid(self, other: "WaveField") -> bool:
        return (self.dimension == other.dimension and self.n_x == other.n_x
                and abs(self.length - other.length) < 1e-12
                and abs(self.eps - other.eps) < 1e-15)

    def with_values(self, values, time=None) -> "WaveField":
        return replace(self, values=values, time=self.time if time is None else time)

    def write(self, path):
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", self.dimension))
            for _ in range(self.dimension):
                fh.write(struct.pack("<I", self.n_x))
            fh.write(struct.pack("<ddd", self.length, self.eps, self.time))
            data = np.empty(self.values.size * 2)
            data[0::2] = self.values.real.ravel(order="C")
            data[1::2] = self.values.imag.ravel(order="C")
            fh.write(data.astype("<f8").tobytes())

    @classmethod
    def read(cls, path) -> "WaveField":
        with open(path, "rb") as fh:
            magic = fh.read(6)
            if magic != MAGIC:
                raise InvalidInputError(f"bad magic {magic!r} in wavefield file")
            (d,) = struct.unpack("<I", fh.read(4))
            shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(d))
            length, eps, time = struct.unpack("<ddd", fh.read(24))
            count = int(np.prod(shape)) * 2
            data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
            values = (data[0::2] + 1j * data[1::2]).reshape(shape)
            return cls(dimension=d, eps=eps, length=length, values=values, time=time)


def l2_distance(a: WaveField, b: WaveField) -> tuple[float, float]:
    """Rectangle-rule ||a - b||_2 and the relative value ||a - b||_2 / ||b||_2."""
    if not a.same_grid(b):
        raise GridMismatchError("wave fields live on different grids")
    if abs(a.time - b.time) > 1e-12:
        raise GridMismatchError(f"wave fields at different times {a.time} vs {b.time}")
    diff = float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.dx ** a.dimension))
    bn = b.norm()
    return diff, diff / bn if bn > 0 else np.inf


def wrap_displacement(x, center, length):
    """Minimum-image displacement x - center on the torus of size `length`."""
    return (x - center + 0.5 * length) % length - 0.5 * length


def gaussian_packet(dimension: int, eps: float, length: float, n_x: int,
                    q0, p0, width: float = 1.0, table=None, band: int = 1,
                    normalize: bool = True):
    """Semiclassical Gaussian packet, optionally modulated by a Bloch wave.

    psi(x) = N exp(-|x-q0|^2 / (2 eps width^2)) exp(i p0.(x-q0)/eps)
             * u_band(p0_snap, x/eps)        (when a band table is given)

    p0 is snapped to the nearest Brillouin node when modulating, so the Bloch
    factor needs no interpolation.  Returns (WaveField, p0_used).
    """
    if n_x < 8 * _check_int_ratio(length, eps):
        raise InvalidInputError("need at least 8 grid points per lattice period")
    q0 = np.broadcast_to(np.asarray(q0, dtype=float), (dimension,))
    p0 = np.asarray(np.broadcast_to(np.asarray(p0, dtype=float), (dimension,)))
    ax = length / n_x * np.arange(n_x)
    mesh = np.meshgrid(*([ax] * dimension), indexing="ij")
    shape = (n_x,) * dimension

    p_used = p0.copy()
    bloch = 1.0
    if table is not None:
        from .bloch import evaluate_bloch_wave, nearest_node
        _, _, p_used = nearest_node(table.grid, p0)
        bloch = evaluate_bloch_wave(table, band, p_used, np.stack(mesh, axis=-1) / eps)

    # periodized envelope: the packet lives on the torus, so tails wrap
    envelope = np.zeros(shape, dtype=complex)
    disp = [wrap_displacement(mesh[a], q0[a], length) for a in range(dimension)]
    images = [m * length for m in range(-2, 3)]
    for shifts in np.stack(np.meshgrid(*([images] * dimension), indexing="ij"),
                           axis=-1).reshape(-1, dimension):
        r2 = np.zeros(shape)
        pr = np.zeros(shape)
        for a in range(dimension):
            dm = disp[a] + shifts[a]
            r2 += dm ** 2
            pr += p_used[a] * dm
        envelope += np.exp(-r2 / (2 * eps * width ** 2) + 1j * pr / eps)
    vals = envelope * bloch
    field = WaveField(dimension=dimension, eps=eps, length=length, values=vals, time=0.0)
    if normalize:
        field = field.with_values(field.values / field.norm())
    return field, p_used
