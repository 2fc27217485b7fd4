"""Example-1 form traffic over TFACC: templates, bindings and write batches.

The three templates are form queries a traffic-accident site would serve:

* ``force_vehicles_on_date`` — vehicles in one police force's accidents on
  one date (the form of ``benchmarks/test_serving_throughput.py``);
* ``force_casualties_on_date`` — the same anchor, joined to casualties;
* ``stops_near_accident`` — public-transport stops linked to one accident.

Bindings are drawn Zipf-skewed over keys that occur in the data, so every
request finds rows, and a few hot keys take a large share of the traffic, as
on a real site.  The rank order of the keys is a seeded shuffle.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import defaultdict
from typing import Any

from repro.relational.database import Database
from repro.spc import ParameterizedQuery
from repro.spc.builder import SPCQueryBuilder
from repro.storage.writes import WriteBatch
from repro.workloads import tfacc_schema

#: Zipf exponent of the binding distribution.
ZIPF_S = 0.9


def form_templates() -> list[ParameterizedQuery]:
    schema = tfacc_schema()
    vehicles = (
        SPCQueryBuilder(schema, name="force_vehicles_on_date")
        .add_atom("accident", alias="a")
        .add_atom("vehicle", alias="v")
        .where_eq("a.accident_id", "v.accident_id")
        .select("a.accident_id", "a.severity", "v.vehicle_id", "v.vehicle_type")
        .build()
    )
    casualties = (
        SPCQueryBuilder(schema, name="force_casualties_on_date")
        .add_atom("accident", alias="a")
        .add_atom("casualty", alias="c")
        .where_eq("a.accident_id", "c.accident_id")
        .select("a.accident_id", "a.time_band", "c.casualty_id", "c.age_band",
                "c.severity")
        .build()
    )
    stops = (
        SPCQueryBuilder(schema, name="stops_near_accident")
        .add_atom("accident_stop", alias="s")
        .add_atom("naptan_stop", alias="n")
        .where_eq("s.stop_id", "n.stop_id")
        .select("s.stop_id", "s.distance_band", "n.common_name", "n.stop_type")
        .build()
    )
    return [
        ParameterizedQuery(vehicles, {"date": vehicles.ref("a", "date"),
                                      "force": vehicles.ref("a", "police_force")}),
        ParameterizedQuery(casualties, {"date": casualties.ref("a", "date"),
                                        "force": casualties.ref("a", "police_force")}),
        ParameterizedQuery(stops, {"accident": stops.ref("s", "accident_id")}),
    ]


class _Zipf:
    """Seeded Zipf draws over a list of keys (rank = position after a shuffle)."""

    def __init__(self, keys: list[Any], rng: random.Random) -> None:
        self.keys = list(keys)
        rng.shuffle(self.keys)
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys)))
        )

    def draw(self, rng: random.Random) -> Any:
        point = rng.random() * self._cumulative[-1]
        return self.keys[bisect.bisect_right(self._cumulative, point)]


class FormTraffic:
    """The seeded request stream: ``(template index, binding)`` pairs."""

    def __init__(self, database: Database, seed: int) -> None:
        accidents = database.relation("accident").tuples()
        links = database.relation("accident_stop").tuples()
        rng = random.Random(seed)
        # (police_force, date) pairs and linked accident ids present in the
        # data, sorted first so the shuffle alone decides the ranks.
        self._force_dates = _Zipf(sorted({(row[3], row[1]) for row in accidents}), rng)
        self._accidents = _Zipf(sorted({row[0] for row in links}), rng)
        self._rng = rng

    def examples(self, template: int, count: int = 8) -> list[dict[str, Any]]:
        """The ``count`` hottest bindings of one template (no draw from the stream)."""
        if template < 2:
            return [{"force": force, "date": date}
                    for force, date in self._force_dates.keys[:count]]
        return [{"accident": accident} for accident in self._accidents.keys[:count]]

    def next_read(self) -> tuple[int, dict[str, Any]]:
        template = self._rng.randrange(3)
        if template < 2:
            force, date = self._force_dates.draw(self._rng)
            return template, {"force": force, "date": date}
        return template, {"accident": self._accidents.draw(self._rng)}


class WriteStream:
    """Write batches that keep the store's size and constraints steady.

    Each batch inserts one new accident — a copy of a seeded existing one,
    with its vehicles, casualties and stop links under fresh ids — and deletes
    the rows the previous batch inserted.  The copy keeps the original's
    ``(police_force, date)``, so the templates' keys see the change and the
    touched relations are exactly the ones the templates read.
    """

    def __init__(self, database: Database, seed: int) -> None:
        self._accidents = sorted(database.relation("accident").tuples())
        self._children: dict[str, dict[str, list[tuple]]] = {}
        for relation in ("vehicle", "casualty", "accident_stop"):
            by_accident: dict[str, list[tuple]] = defaultdict(list)
            position = 0 if relation == "accident_stop" else 1
            for row in database.relation(relation).tuples():
                by_accident[row[position]].append(row)
            self._children[relation] = by_accident
        self._rng = random.Random(seed ^ 0x5EED)
        self._previous: dict[str, list[tuple]] = {}
        #: Every batch produced, in commit order (the replay log).
        self.log: list[WriteBatch] = []

    def next_batch(self) -> WriteBatch:
        serial = len(self.log)
        source = self._rng.choice(self._accidents)
        accident_id = f"accw{serial:07d}"
        vehicle_ids = {}
        vehicles = []
        for index, row in enumerate(self._children["vehicle"].get(source[0], ())):
            vehicle_ids[row[0]] = f"vehw{serial:07d}_{index}"
            vehicles.append((vehicle_ids[row[0]], accident_id) + row[2:])
        casualties = [
            (f"casw{serial:07d}_{index}", accident_id, vehicle_ids.get(row[2], row[2]))
            + row[3:]
            for index, row in enumerate(self._children["casualty"].get(source[0], ()))
        ]
        links = [(accident_id,) + row[1:]
                 for row in self._children["accident_stop"].get(source[0], ())]
        inserts = {"accident": [(accident_id,) + source[1:]], "vehicle": vehicles,
                   "casualty": casualties, "accident_stop": links}
        batch = WriteBatch(inserts=inserts, deletes=self._previous)
        self._previous = inserts
        self.log.append(batch)
        return batch
