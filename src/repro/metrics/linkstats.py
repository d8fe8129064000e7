"""Per-link utilisation maps (Figures 8, 9 and 11 of the paper).

The paper plots, for a given injection rate, the utilisation of every
inter-switch link.  Our channels count transferred flits, so

    utilisation = flits * flit_cycle / measurement_window

per *directed* channel; the per-cable figure used in the paper's maps is
the maximum of the two directions (a cable shows up as hot when either
direction is hot).  The difference between reserved time and transfer
time quantifies the "links idle due to flow control" effect discussed in
Section 4.7.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from ..config import MyrinetParams
from ..sim.base import NetworkModel

# numpy is imported where it is used, so ``import repro.cli`` does not
# pay for it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LinkUtilization:
    """Utilisation snapshot over one measurement window."""

    window_ps: int
    #: per directed NET channel: (src switch, dst switch, link id)
    channel_ends: List[tuple]
    #: fraction of the window each directed channel spent moving flits
    utilization: np.ndarray
    #: fraction of the window each directed channel was reserved
    reserved: np.ndarray
    #: per physical cable: max of the two directions
    per_link: np.ndarray

    def summary(self) -> dict:
        """Aggregate numbers quoted in the paper's text."""
        u = self.per_link
        return {
            "max": float(u.max()),
            "mean": float(u.mean()),
            "min": float(u.min()),
            "frac_below_10pct": float((u < 0.10).mean()),
            "frac_above_30pct": float((u > 0.30).mean()),
        }

    def blocked_fraction(self) -> np.ndarray:
        """Per directed channel: reserved but not transferring
        (wormhole stalls / flow control idling)."""
        return self.reserved - self.utilization

    def hottest(self, k: int = 5) -> List[tuple]:
        """The ``k`` hottest directed channels as
        ``(utilisation, src, dst, link_id)``."""
        import numpy as np
        order = np.argsort(self.utilization)[::-1][:k]
        return [(float(self.utilization[i]), *self.channel_ends[i])
                for i in order]

    def to_dict(self) -> dict:
        """JSON-safe form (arrays become lists)."""
        return {
            "window_ps": self.window_ps,
            "channel_ends": [list(e) for e in self.channel_ends],
            "utilization": self.utilization.tolist(),
            "reserved": self.reserved.tolist(),
            "per_link": self.per_link.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkUtilization":
        """Inverse of :meth:`to_dict`."""
        import numpy as np
        return cls(
            window_ps=data["window_ps"],
            channel_ends=[tuple(e) for e in data["channel_ends"]],
            utilization=np.asarray(data["utilization"], dtype=float),
            reserved=np.asarray(data["reserved"], dtype=float),
            per_link=np.asarray(data["per_link"], dtype=float),
        )


def collect_link_stats(network: NetworkModel, window_ps: int,
                       params: MyrinetParams) -> LinkUtilization:
    """Snapshot utilisation of all inter-switch channels.

    Works with any engine through the uniform
    :meth:`~repro.sim.base.NetworkModel.link_flit_counts` accessor;
    engines without the ``link_stats`` capability raise
    :class:`~repro.sim.base.UnsupportedCapability`.
    """
    import numpy as np
    if window_ps <= 0:
        raise ValueError("window must be positive")
    ends = []
    util = []
    resv = []
    num_links = network.graph.num_links
    per_link = np.zeros(num_links)
    for ch in network.link_flit_counts():
        ends.append((ch.src, ch.dst, ch.link_id))
        u = ch.flits * params.flit_cycle_ps / window_ps
        util.append(u)
        resv.append(ch.reserved_ps / window_ps)
        per_link[ch.link_id] = max(per_link[ch.link_id], u)
    return LinkUtilization(window_ps, ends, np.array(util), np.array(resv),
                           per_link)
