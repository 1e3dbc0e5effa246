"""SVG figures: well-formed XML whatever the labels, and stable bytes."""

import hashlib
import tracemalloc
import xml.etree.ElementTree as ET

from gridrays.cli import main
from gridrays.svgfig import Scene

SVG = "{http://www.w3.org/2000/svg}"


def test_labels_and_colours_are_escaped():
    scene = Scene((0, 3, 0, 3))
    label = 'f<g & h > "k"'
    scene.add_path([(0, 0), (1, 1)], label=label, color='#000" x="1')
    root = ET.fromstring(scene.render().encode())
    text = root.find(f"{SVG}text")
    assert text.text == label
    assert text.get("fill") == '#000" x="1'
    assert root.find(f"{SVG}polyline").get("stroke") == '#000" x="1'


# sha256 of the files written, frozen before labels were escaped; ray
# literals hold no character that needs it
SVG_GOLDEN = [
    (["render", "(01)", "slope:2/1@2", "01(1)", "--steps", "12",
      "--with-line", "--out"],
     "50b6a6462be833dbacff23a7b1e6d6407c565400eba5cccf8507fed0396482e2"),
    (["demo", "trivial-topology", "--svg"],
     "5f14b5d7020cb2f8739955c10506d3b559e841f35657e96b352984d3292c66ed"),
    # third quadrant: the window's lower corner is negative
    (["render", "(23)", "(3)", "--steps", "20", "--out"],
     "2b761e61d3a1efac9538e22c20acd2ec91c547dfec569a00433b4d7db78d5096"),
]


def test_figures_are_byte_identical(tmp_path, capsys):
    for argv, want in SVG_GOLDEN:
        target = tmp_path / "fig.svg"
        assert main([*argv, str(target)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == want
    capsys.readouterr()


def test_grid_lines_are_made_one_at_a_time():
    # 40,002 grid lines; listing every line's ends first peaked at 6.3 times
    # the length of the output
    tracemalloc.start()
    try:
        svg = Scene((0, 20000, 0, 20000)).render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.count("<line ") == 40002
    assert peak < 5 * len(svg)
