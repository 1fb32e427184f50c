"""Row view of a `DecayCurve` for the tests that read a curve point by
point: one `DecayBlock` per rate, each holding one `DecayRow` per time
step, read from the curve's columns."""

from dataclasses import dataclass


@dataclass(frozen=True)
class DecayRow:
    t: float
    p: float
    alpha: float
    beta: float
    gamma_sv: float
    sigma: float
    classification: str


@dataclass(frozen=True)
class DecayBlock:
    gamma: float
    rows: tuple[DecayRow, ...]


def blocks(curve) -> tuple[DecayBlock, ...]:
    t_list = curve.t.tolist()
    return tuple(
        DecayBlock(
            gamma=gamma,
            rows=tuple(
                DecayRow(*fields)
                for fields in zip(t_list, curve.p[bi].tolist(), *curve.sv[bi].T.tolist(),
                                  curve.sigma[bi].tolist(), curve.labels[bi].tolist())
            ),
        )
        for bi, gamma in enumerate(curve.gammas.tolist())
    )
