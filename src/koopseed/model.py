"""Koopman model container and its portable on-disk matrix format."""

import json
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary, build_dictionary


@dataclass
class KoopmanModel:
    """A dictionary plus a square real matrix K with Psi(x_next) ~= K Psi(x)."""

    dictionary: Dictionary
    matrix: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = len(self.dictionary)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dictionary size {n}"
            )


def write_csv(path, header: str, rows) -> None:
    """Write a header line, then one comma-separated line per row.

    A column whose first value is a float is written with 17 significant
    digits, which read back as the same float64 bits (any NaN as "nan");
    any other column is written with ``%s``. Every CSV the package writes
    goes through here.
    """
    rows = iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        first = next(rows, None)
        if first is None:
            return
        line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
        fh.write(line % tuple(first))
        fh.writelines(line % tuple(row) for row in rows)


def save_matrix_csv(path, model: KoopmanModel, extra_meta: dict | None = None) -> None:
    """Write a model as dense CSV rows under a one-line JSON metadata header.

    The header records var_count/max_degree, from which the dictionary is
    reconstructed exactly (ordering is deterministic). Entries are written
    by write_csv, so the round trip is bit-exact.
    """
    meta = {
        "var_count": model.dictionary.var_count,
        "max_degree": model.dictionary.max_degree,
        "size": len(model.dictionary),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_csv(path, "# " + json.dumps(meta, sort_keys=True), model.matrix.tolist())


def load_matrix_csv(path) -> KoopmanModel:
    """Read a model written by save_matrix_csv. A malformed file raises a
    ValueError that names it."""
    try:
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise ValueError("missing metadata header line")
            meta = json.loads(header[1:])
            if not isinstance(meta, dict) or not {"var_count", "max_degree", "size"} <= meta.keys():
                raise ValueError("metadata header must be a JSON record with var_count, max_degree and size")
            dictionary = build_dictionary(meta["var_count"], meta["max_degree"])
            if meta["size"] != len(dictionary):
                raise ValueError(f"metadata size {meta['size']!r} is not the dictionary size {len(dictionary)}")
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
        model = KoopmanModel(dictionary, matrix)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"{path}: {exc}") from exc
    model.diagnostics.update({k: v for k, v in meta.items() if k not in ("var_count", "max_degree", "size")})
    return model
