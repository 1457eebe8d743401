"""Checks that BENCHMARK.json keeps the benchmark contract.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_shapes(self):
        doc = load()
        self.assertEqual(
            set(doc),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= len(doc["paths"]) <= 16)
        for p in doc["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        self.assertTrue(1 <= len(doc["command"]) <= 32)
        self.assertTrue(all(len(c) <= 200 and not c.startswith("/") for c in doc["command"]))
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertLessEqual(len(json.dumps(doc)), 64 * 1024)

    def test_metric_names_and_units(self):
        doc = load()
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        names += [w["name"] for w in doc["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT, m["name"])
            self.assertIn(m["better"], ("higher", "lower"), m["name"])
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in load()["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))


if __name__ == "__main__":
    unittest.main()
