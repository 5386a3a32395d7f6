"""The format-1 certificate writer (``galmod-certificate-1``), kept as a
test reference: certificates of that format are still read, and the
pinned certificate digests are digests of this rendering.

Every complex carries its group dump and dense lattice bodies (the
layout of ``serialize.dump_complex``); a pushout or pullback side is
stored in the "half" layout, its B as generators with one empty row of
relations each and its action matrices."""

from galmod import serialize as se


def _side(t, kind: str) -> dict:
    c = se.dump_complex(t)
    if kind == "duality":
        return {"type": "complex", "value": c}
    rank = t.l2.rank
    return {"type": "half", "group": c["group"], "a": c["l1"],
            "d": c["differential"],
            "b": {"ngens": rank, "relations": [[] for _ in range(rank)],
                  "action": c["l2"]["action"]}}


def _rows(m):
    return None if m is None else [list(row) for row in m]


def dump_certificate(cert) -> dict:
    """The certificate as format-1 JSON data."""
    return {
        "format": se.CERTIFICATE_FORMAT_1,
        "mode": cert.mode,
        "original": se.dump_complex(cert.original),
        "resolved": se.dump_complex(cert.resolved),
        "moves": [{
            "kind": m.kind,
            "src": _side(m.src, m.kind),
            "tgt": _side(m.tgt, m.kind),
            "comp_minus1": _rows(m.comp_minus1),
            "comp0": _rows(m.comp0),
            "evidence": [m.evidence.hminus_ok, m.evidence.h0_ok],
        } for m in cert.moves],
        "vanishing_table": se.deep_list(cert.vanishing_table),
    }


def text(cert) -> str:
    """The format-1 JSON text of ``cert``."""
    return se.to_json(dump_certificate(cert))
