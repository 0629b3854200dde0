#!/usr/bin/env python3
"""Self-test of config_audit.py and dead_code_audit.py.

Usage: test_audits.py

Builds a small source tree in a temporary directory with four planted
items and runs both audits on it:

* a Config field that no file assigns (config_audit must list it);
* a Counters field that no file reads (dead_code_audit must list it);
* a public function that nothing calls (dead_code_audit must list it);
* an uncalled function of a helper struct declared in a private section,
  which is no public function (neither audit may list it).

Beside each planted item sits a live one (an assigned field, a read
counter, a called function) that neither audit may list. Stdlib only;
exits 0 when every expectation holds, 1 otherwise.
"""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))

PLANTED = {
    "src/plant/plant.h": """\
#pragma once

namespace plant {

class Plant {
  public:
    struct Config {
        int set_knob = 0;
        int planted_knob = 0;
    };
    struct Counters {
        int read_count = 0;
        int planted_count = 0;
    };

    explicit Plant(Config config);
    void Tick();
    int Called() const;
    int PlantedUncalled() const;
    const Counters& counters() const { return counters_; }

  private:
    struct PlantedHelper {
        int HelperUncalled() const { return 1; }
    };

    Config config_;
    Counters counters_;
};

}  // namespace plant
""",
    "src/plant/plant.cc": """\
#include "plant/plant.h"

namespace plant {

Plant::Plant(Config config) : config_(config) {}

void Plant::Tick() {
    ++counters_.read_count;
    ++counters_.planted_count;
}

int Plant::Called() const { return config_.set_knob; }

int Plant::PlantedUncalled() const { return 0; }

}  // namespace plant
""",
    "tests/test_plant.cc": """\
#include "plant/plant.h"

int main() {
    plant::Plant::Config config;
    config.set_knob = 2;
    plant::Plant plant(config);
    plant.Tick();
    return plant.Called() + plant.counters().read_count;
}
""",
}


def run_audit(script, root):
    """(exit code, listed lines) of one audit run over `root`."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), root],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.splitlines()
    # The last line is the summary; every line before it is a finding.
    return proc.returncode, lines[:-1]


class AuditsFindWhatIsPlanted(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as root:
            for path, text in PLANTED.items():
                full = os.path.join(root, path)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(text)
            cls.config = run_audit("config_audit.py", root)
            cls.dead = run_audit("dead_code_audit.py", root)

    def test_config_audit_lists_the_unassigned_field(self):
        code, lines = self.config
        self.assertEqual(code, 1)
        self.assertEqual(lines,
                         [os.path.join("src", "plant", "plant.h") +
                          ": Plant::Config::planted_knob"])

    def test_dead_code_audit_lists_the_unread_counter_and_uncalled_function(self):
        code, lines = self.dead
        self.assertEqual(code, 1)
        header = os.path.join("src", "plant", "plant.h")
        self.assertEqual(lines, [f"{header}: Plant::Counters::planted_count",
                                 f"{header}:19: Plant::PlantedUncalled()"])

    def test_neither_audit_lists_the_private_helper(self):
        for _, lines in (self.config, self.dead):
            self.assertFalse([line for line in lines
                              if "PlantedHelper" in line or
                              "HelperUncalled" in line], lines)


if __name__ == "__main__":
    unittest.main()
