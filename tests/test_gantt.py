import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest

from reskit.gantt import EXECUTING_FILL, FOCAL_FILL, render_svg, render_text
from reskit.instances import InstanceSpec, generate_instance, inject_disruption
from reskit.schedule import Resource, ScheduleState, Task, elaborate

from helpers import naive_timing, two_task_state

SVG_NS = "{http://www.w3.org/2000/svg}"


def bars(svg: str):
    root = ET.fromstring(svg)
    return [
        el
        for el in root.iter(f"{SVG_NS}rect")
        if "bar" in el.get("class", "").split()
    ]


def test_two_task_bars_scale_with_duration():
    state = elaborate(two_task_state())
    svg = render_svg(state)
    found = bars(svg)
    assert len(found) == 2
    widths = [float(el.get("width")) for el in found]
    oracle = naive_timing(two_task_state())
    assert widths[1] / widths[0] == pytest.approx(
        oracle["t2"]["duration"] / oracle["t1"]["duration"], rel=1e-3
    )
    xs = [float(el.get("x")) for el in found]
    assert xs[0] < xs[1]
    # one row per resource: both bars share the row's y
    assert found[0].get("y") == found[1].get("y")


def test_empty_schedule_renders_no_bars():
    state = elaborate(ScheduleState(resources=[Resource(id="r1", rates={"A": 1.0})]))
    svg = render_svg(state)
    assert bars(svg) == []
    ET.fromstring(svg)  # well-formed


def test_focal_and_executing_styles():
    inst = generate_instance(InstanceSpec(seed=8))
    inst.arrival_h = 2.0
    state = inject_disruption(inst)
    svg = render_svg(state)
    focal = [el for el in bars(svg) if "focal" in el.get("class").split()]
    assert len(focal) == 1
    assert focal[0].get("fill") == FOCAL_FILL
    executing = [el for el in bars(svg) if "executing" in el.get("class").split()]
    assert len(executing) == sum(1 for t in state.tasks.values() if t.executing)
    assert all(el.get("fill") == EXECUTING_FILL for el in executing)


def test_render_is_pure():
    state = inject_disruption(generate_instance(InstanceSpec(seed=3)))
    assert render_svg(state) == render_svg(state)
    assert render_text(state) == render_text(state)


def test_caption_appears():
    state = elaborate(two_task_state())
    assert "totTard 1 h" in render_svg(state, caption="totTard 1 h")


def test_markup_in_names_is_escaped():
    # names, products and resource ids are free text in an instance file
    state = two_task_state()
    state.resources[0] = Resource(
        id='r<1> & "x"', rates={"A&B": 10.0}, task_chain=["t1", "t2"]
    )
    for t, name in zip(state.tasks.values(), ["A&B <x>", "it's </title>"]):
        t.name, t.product = name, "A&B"
    state = elaborate(state)
    svg = render_svg(state, caption="totTard <1 h & rising")
    minidom.parseString(svg)  # well-formed
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter(f"{SVG_NS}text")]
    assert "totTard <1 h & rising" in texts
    assert 'r<1> & "x"' in texts
    assert "A&B <x>" in texts
    titles = [el.text for el in root.iter(f"{SVG_NS}title")]
    assert titles == ["A&B <x> (A&B 20 kg, due 1 h)", "it's </title> (A&B 30 kg, due 10 h)"]


def test_text_rendering_golden():
    state = elaborate(two_task_state())
    state.focal_task = "t2"
    # t1: A for 2 h (4 cells), t2 focal for 3 h (6 cells)
    expected = "\n".join(
        [
            "r1 |AAAA******|",
            "    0 .. 5 h  (0.5 h/char)",
        ]
    )
    assert render_text(state, quantum=0.5) == expected


def test_text_rendering_marks_executing_lowercase():
    state = two_task_state()
    state.tasks["t1"].executing = True
    state = elaborate(state)
    text = render_text(state, quantum=1.0)
    assert "aa" in text.splitlines()[0]


def test_text_quantum_validation():
    state = elaborate(two_task_state())
    with pytest.raises(ValueError):
        render_text(state, quantum=0.0)
    # 5 h at 1e-7 h/char would be 5e7 chars per row: refused before drawing
    with pytest.raises(ValueError):
        render_text(state, quantum=1e-7)
