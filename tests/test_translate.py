"""Directive translation, the accuracy wrapper, and the instruction
board's reversible effects."""

from __future__ import annotations

import pytest

from floodloop import translate as tr
from floodloop import world as w
from floodloop.config import WorldConfig
from floodloop.policy import Directive
from floodloop.state import summarize_world


def small_world():
    return w.build_world(WorldConfig(16, 16, 4), 4)


def summary_of(world, blocking_depth=0.3):
    return summarize_world(world, "extreme", 0.0, blocking_depth, (), (0, 0, 0, 0), 0.7)


# --- translate ------------------------------------------------------------------

def test_translate_close_cell():
    d = Directive("close_cell", 1, cell=(12, 7), params=())
    [instr] = tr.translate([d], (5, 14))
    assert instr.tag is tr.Tag.OBSTACLE
    assert instr.region == 1
    assert instr.cell == (12, 7)
    assert instr.window == (5, 14)


@pytest.mark.parametrize(
    "directive, tag",
    [
        (Directive("avoid_region", 0, cell=None, params=(("penalty", 4.0),)), tr.Tag.ROUTING),
        (Directive("avoid_region_strong", 0, cell=None, params=(("penalty", 8.0),)), tr.Tag.ROUTING),
        (Directive("close_cell", 0, cell=(1, 2), params=()), tr.Tag.OBSTACLE),
        (Directive("close_cell_brief", 0, cell=(1, 2), params=()), tr.Tag.OBSTACLE),
        (Directive("hold_buses", 0, cell=None, params=()), tr.Tag.STOP),
        (Directive("hold_buses_brief", 0, cell=None, params=()), tr.Tag.STOP),
        (Directive("deploy_pumps", 0, cell=None, params=(("multiplier", 1.5),)), tr.Tag.RELIEF),
        (Directive("deploy_pumps_surge", 0, cell=None, params=(("multiplier", 5.0),)), tr.Tag.RELIEF),
    ],
    ids=lambda v: v.kind if isinstance(v, Directive) else v.value,
)
def test_translate_bijection(directive, tag):
    [instr] = tr.translate([directive], (0, 9))
    assert instr.tag is tag
    assert (instr.region, instr.cell, instr.params) == (directive.region, directive.cell, directive.params)


def test_translate_deterministic():
    d = Directive("deploy_pumps", 2, cell=(8, 8), params=())
    assert tr.translate([d], (0, 9)) == tr.translate([d], (0, 9))


def test_translate_brief_variant_shortens_window():
    d = Directive("close_cell_brief", 0, cell=(0, 0), params=())
    assert tr.translate([d], (10, 19))[0].window == (10, 14)  # half of the 9-step span, rounded


# --- accuracy wrapper ------------------------------------------------------------------

def test_wrap_road_anchor_unchanged():
    ws = small_world()
    road_cell = ws.road_cells()[0]
    region = ws.region_of(road_cell)
    instr = tr.Instruction(tr.Tag.OBSTACLE, region, road_cell, (), (0, 9))
    [out] = tr.wrap_accuracy([instr], summary_of(ws))
    assert out is instr


def test_wrap_rejects_obstacle_without_cell():
    instr = tr.Instruction(tr.Tag.OBSTACLE, 2, None, (), (0, 9))
    [out] = tr.wrap_accuracy([instr], summary_of(small_world()))
    assert out == tr.Rejection(instr, "no road cell in region 2 to anchor obstacle")


def test_wrap_rejects_routing_into_fully_flooded_region():
    ws = small_world()
    ws.water_depth[ws.region_id == 1] = 1.0
    instr = tr.Instruction(tr.Tag.ROUTING, 1, None, (("penalty", 4.0),), (0, 9))
    [out] = tr.wrap_accuracy([instr], summary_of(ws))
    assert out == tr.Rejection(instr, "routing infeasible: region 1 fully flooded")


# --- dispatch board -----------------------------------------------------------------------

def test_board_noop_records_only():
    board = tr.InstructionBoard(4)
    board.dispatch([tr.Instruction(tr.Tag.NOOP, 0, None, (), (0, 9))])
    assert board.closed_cells(5) == set()
    assert board.region_penalties(5) == {}
    assert board.bus_held(5) == set()
    assert board.drain_multipliers(5) is None


def test_board_obstacle_window():
    board = tr.InstructionBoard(4)
    board.dispatch([tr.Instruction(tr.Tag.OBSTACLE, 0, (3, 4), (), (2, 6))])
    assert board.closed_cells(1) == set()
    assert board.closed_cells(2) == {(3, 4)}
    assert board.closed_cells(6) == {(3, 4)}
    assert board.closed_cells(7) == set()


def test_board_relief_trace_reversible():
    board = tr.InstructionBoard(4)
    board.dispatch([tr.Instruction(tr.Tag.RELIEF, 2, None, (("multiplier", 3.0),), (5, 9))])
    trace = {step: board.drain_multipliers(step) for step in range(12)}
    for step in range(5):
        assert trace[step] is None
    for step in range(5, 10):
        assert trace[step].tolist() == [1.0, 1.0, 3.0, 1.0]
    for step in (10, 11):
        assert trace[step] is None


def test_board_stop_and_routing_queries():
    board = tr.InstructionBoard(8)
    board.dispatch(
        [
            tr.Instruction(tr.Tag.STOP, 3, None, (), (0, 4)),
            tr.Instruction(tr.Tag.ROUTING, 5, None, (("penalty", 8.0),), (0, 4)),
            tr.Instruction(tr.Tag.ROUTING, 5, None, (("penalty", 4.0),), (0, 4)),
            tr.Instruction(tr.Tag.ROUTING, 6, None, (("penalty", 4.0),), (0, 4)),
        ]
    )
    assert board.bus_held(2) == {3}
    assert board.bus_held(6) == set()
    # strongest active penalty wins
    assert board.region_penalties(2) == {5: 8.0, 6: 4.0}
    assert board.active_regions(2) == (3, 5, 6)
    assert board.active_regions(9) == ()


def test_obstacle_changes_route():
    from floodloop.mobility import Router, plan_path, road_graph

    ws = small_world()
    board = tr.InstructionBoard(4)
    origin, destination = (0, 0), (0, 8)
    corridor_cell = (0, 4)
    board.dispatch([tr.Instruction(tr.Tag.OBSTACLE, ws.region_of(corridor_cell), corridor_cell, (), (0, 9))])

    mask = ws.is_road.copy()
    for cell in board.closed_cells(3):
        mask[cell] = False

    path = plan_path(origin, destination, Router(mask, road_graph(ws.is_road)))
    assert path is not None
    assert corridor_cell not in path
