"""Unit tests for the parallel sweep executor (determinism, resume, diff)."""

from __future__ import annotations

import pytest

from repro.scenarios import Sweep, SweepResult, SpecError

TINY_FIGURE7 = {
    "workload.searches": 10,
    "workload.iterations": 1,
    "failures.levels": "0.0,0.5",
}


def tiny_sweep(master_seed: int = 3) -> Sweep:
    return Sweep(
        "figure7",
        grid={"engine": ["object", "fastpath"], "topology.nodes": [64, 128]},
        base=TINY_FIGURE7,
        master_seed=master_seed,
    )


class TestSweepConstruction:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            Sweep("figure99", grid={})

    def test_unknown_grid_key_rejected_up_front(self):
        with pytest.raises(SpecError, match="unknown override key"):
            Sweep("figure7", grid={"topology.wings": [1, 2]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            Sweep("figure7", grid={"topology.nodes": []})

    def test_cells_are_cartesian_product_in_grid_order(self):
        sweep = tiny_sweep()
        cells = sweep.cells()
        assert len(cells) == 4
        assert [(c["engine"], c["topology.nodes"]) for c in cells] == [
            ("object", 64), ("object", 128), ("fastpath", 64), ("fastpath", 128),
        ]
        # Base overrides are folded into every cell (values coerced).
        assert all(c["workload.searches"] == 10 for c in cells)
        assert all(c["failures.levels"] == (0.0, 0.5) for c in cells)

    def test_cli_strings_and_python_values_same_cells(self):
        text = Sweep("figure7", grid={"topology.nodes": ["64", "128"]}, master_seed=1)
        typed = Sweep("figure7", grid={"topology.nodes": [64, 128]}, master_seed=1)
        assert text.cells() == typed.cells()
        assert [text.cell_seed(c) for c in text.cells()] == [
            typed.cell_seed(c) for c in typed.cells()
        ]

    def test_cell_seeds_depend_on_master_seed_and_cell(self):
        sweep_a = tiny_sweep(master_seed=3)
        sweep_b = tiny_sweep(master_seed=4)
        seeds_a = [sweep_a.cell_seed(cell) for cell in sweep_a.cells()]
        seeds_b = [sweep_b.cell_seed(cell) for cell in sweep_b.cells()]
        assert len(set(seeds_a)) == 4  # distinct per cell
        assert set(seeds_a).isdisjoint(seeds_b)  # master seed matters


class TestSweepExecution:
    def test_serial_and_parallel_byte_identical(self):
        sweep = tiny_sweep()
        serial = sweep.run(jobs=1)
        parallel = sweep.run(jobs=4)
        assert serial.to_json() == parallel.to_json()

    def test_same_master_seed_reproduces_different_differs(self):
        again = tiny_sweep().run(jobs=1)
        assert again.to_json() == tiny_sweep().run(jobs=1).to_json()
        other = tiny_sweep(master_seed=9).run(jobs=1)
        # Same grid, different master seed: every cell draws a different seed.
        assert [cell.key for cell in other.cells] == [cell.key for cell in again.cells]
        assert {cell.seed for cell in other.cells}.isdisjoint(
            cell.seed for cell in again.cells
        )

    def test_json_round_trip_and_save_load(self, tmp_path):
        result = tiny_sweep().run(jobs=1)
        restored = SweepResult.from_json(result.to_json())
        assert restored.to_json() == result.to_json()
        path = result.save(tmp_path / "sweep.json")
        assert SweepResult.load(path).to_json() == result.to_json()

    def test_save_load_preserves_cell_timings(self, tmp_path):
        """Saved sweeps keep wall-clock seconds in the ``timings`` side table.

        The deterministic cell payload still excludes timing (so parallel and
        serial files stay comparable), but :meth:`SweepResult.load` restores
        every cell's measured seconds — a resumed sweep must not lose them.
        """
        import json

        result = tiny_sweep().run(jobs=1)
        originals = {cell.key: cell.result.seconds for cell in result.cells}
        assert all(seconds is not None for seconds in originals.values())

        path = result.save(tmp_path / "sweep.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["timings"] == pytest.approx(originals)
        # The cells themselves stay deterministic: no inline timing.
        assert all("seconds" not in cell["result"] for cell in data["cells"])

        loaded = SweepResult.load(path)
        for cell in loaded.cells:
            assert cell.result.seconds == pytest.approx(originals[cell.key])

        # Resuming from the loaded file reuses every cell *with* its timing.
        resumed = tiny_sweep().run(jobs=1, resume=loaded)
        for cell in resumed.cells:
            assert cell.result.seconds == pytest.approx(originals[cell.key])

    def test_resume_reuses_cells(self):
        sweep = tiny_sweep()
        first = sweep.run(jobs=1)
        progress: list[str] = []
        resumed = sweep.run(jobs=1, resume=first, progress=progress.append)
        assert resumed.to_json() == first.to_json()
        assert len(progress) == 4
        assert all("reused" in line for line in progress)

    def test_resume_mismatch_rejected(self):
        first = tiny_sweep(master_seed=3).run(jobs=1)
        with pytest.raises(SpecError, match="resume sweep does not match"):
            tiny_sweep(master_seed=4).run(jobs=1, resume=first)

    def test_engine_recorded_per_cell(self):
        result = tiny_sweep().run(jobs=1)
        engines = {cell.overrides["engine"]: cell.result.engine_used for cell in result.cells}
        assert engines == {"object": "object", "fastpath": "fastpath"}

    def test_empty_grid_is_single_cell(self):
        result = Sweep("figure7", base=TINY_FIGURE7 | {"topology.nodes": 64}).run()
        assert len(result.cells) == 1
        assert result.cells[0].result.scenario == "figure7"
