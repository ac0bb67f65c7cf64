#include "trace/report.hh"

#include <sstream>

#include "common/json.hh"

namespace neurocube
{

namespace
{

/** Escape a string for HTML text content. */
std::string
htmlEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** Emit one run's documents as a JSON object field set. */
void
appendRun(std::ostringstream &os, const ReportRun &run)
{
    auto field = [&os](const char *name, const std::string &json,
                       bool first = false) {
        if (!first)
            os << ",";
        os << "\"" << name
           << "\":" << (json.empty() ? "null" : json);
    };
    os << "{\"name\":" << jsonString(run.name);
    field("manifest", run.manifestJson);
    field("metrics", run.metricsJson);
    field("energy", run.energyJson);
    field("spatial", run.spatialJson);
    field("phases", run.phasesJson);
    os << "}";
}

/** Everything before the embedded data (up to the title). */
const char *const kHead = R"NCHTML(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>)NCHTML";

/** Between the title and the data block. */
const char *const kStyle = R"NCHTML(</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 0 auto;
       max-width: 1080px; padding: 16px 24px 64px; color: #222; }
h1 { font-size: 22px; border-bottom: 2px solid #444;
     padding-bottom: 6px; }
h2 { font-size: 18px; margin-top: 40px; border-bottom: 1px solid
     #bbb; padding-bottom: 4px; }
h3 { font-size: 15px; margin: 20px 0 8px; }
table { border-collapse: collapse; font-size: 13px; }
td, th { border: 1px solid #ccc; padding: 3px 8px;
         text-align: left; }
th { background: #f2f2f2; }
.grids { display: flex; flex-wrap: wrap; gap: 24px; }
.heat { display: inline-block; }
.heat .cells { display: grid; gap: 2px; }
.heat .cell { width: 46px; height: 34px; display: flex;
              align-items: center; justify-content: center;
              font-size: 11px; border-radius: 2px;
              background: #f0f2f5; }
.heat .cap { font-size: 12px; color: #555; margin-top: 4px; }
.bar { display: flex; height: 18px; width: 420px;
       border: 1px solid #aaa; margin: 2px 0; }
.bar div { height: 100%; }
.row { display: flex; align-items: center; gap: 8px;
       font-size: 13px; }
.row .lbl { width: 140px; text-align: right; overflow: hidden;
            white-space: nowrap; text-overflow: ellipsis; }
.legend { font-size: 12px; color: #444; margin: 6px 0; }
.legend span { display: inline-block; margin-right: 12px; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; border-radius: 2px; }
.note { font-size: 12px; color: #666; }
svg { background: #fcfcfd; border: 1px solid #ddd; }
</style>
</head>
<body>
<div id="root"></div>
<script id="nc-data" type="application/json">)NCHTML";

/** Everything after the data block: the renderer. */
const char *const kScript = R"NCHTML(</script>
<script>
"use strict";
const DATA = JSON.parse(
    document.getElementById("nc-data").textContent);
const root = document.getElementById("root");

const STALL_COLORS = { busy: "#4caf50", idle: "#b0bec5",
    stall_dram: "#e91e63", stall_noc_credit: "#ff9800",
    stall_inject: "#3f51b5", stall_cache: "#00bcd4" };
const ENERGY_COLORS = { mac: "#4caf50", sram: "#00bcd4",
    buffers: "#8bc34a", noc: "#ff9800", png: "#3f51b5",
    vault_logic: "#9c27b0", dram: "#e91e63" };

function h(tag, attrs, ...children) {
    const e = document.createElement(tag);
    for (const k in (attrs || {})) {
        if (k === "text") e.textContent = attrs[k];
        else e.setAttribute(k, attrs[k]);
    }
    for (const c of children) e.appendChild(c);
    return e;
}
function svgEl(tag, attrs) {
    const e = document.createElementNS(
        "http://www.w3.org/2000/svg", tag);
    for (const k in (attrs || {})) e.setAttribute(k, attrs[k]);
    return e;
}
function fmt(v) {
    if (v === null || v === undefined) return "-";
    if (typeof v !== "number") return String(v);
    const a = Math.abs(v);
    if (a >= 1e9) return (v / 1e9).toFixed(1) + "G";
    if (a >= 1e6) return (v / 1e6).toFixed(1) + "M";
    if (a >= 1e4) return (v / 1e3).toFixed(1) + "k";
    if (Number.isInteger(v)) return String(v);
    return a >= 0.01 || a === 0 ? v.toFixed(3) : v.toExponential(2);
}

// --- heatmap: values laid out on a cols-wide grid -----------------
function heatmap(title, values, cols) {
    const max = Math.max(1, ...values);
    const box = h("div", { class: "heat" });
    const cells = h("div", { class: "cells",
        style: "grid-template-columns: repeat(" + cols
               + ", 46px);" });
    values.forEach(function (v, i) {
        const cell = h("div", { class: "cell", text: fmt(v),
            title: "#" + i + ": " + v });
        cell.style.background =
            "rgba(211, 47, 47, " + (v / max * 0.85).toFixed(3) + ")";
        if (v / max > 0.55) cell.style.color = "#fff";
        cells.appendChild(cell);
    });
    box.appendChild(cells);
    box.appendChild(h("div", { class: "cap",
        text: title + " (max " + fmt(max) + ")" }));
    return box;
}

// --- link traffic map: mesh nodes + per-link flit/stall lines -----
function linkMap(sp) {
    const n = sp.nodes || 0;
    const cols = sp.mesh_width > 0 ? sp.mesh_width
               : Math.ceil(Math.sqrt(n));
    const step = 90, pad = 50;
    const size = pad * 2 + step * (cols - 1);
    const svg = svgEl("svg", { width: size, height: size });
    const pos = function (node) {
        return [pad + (node % cols) * step,
                pad + Math.floor(node / cols) * step];
    };
    const maxFlits = Math.max(1, ...sp.links.map(l => l.flits));
    const maxStall = Math.max(1,
        ...sp.links.map(l => l.credit_stalls));
    sp.links.forEach(function (l) {
        const a = pos(l.src), b = pos(l.dst);
        // Offset each direction sideways so both are visible.
        const dx = b[0] - a[0], dy = b[1] - a[1];
        const len = Math.max(1, Math.hypot(dx, dy));
        const ox = -dy / len * 5, oy = dx / len * 5;
        const heat = l.credit_stalls / maxStall;
        const line = svgEl("line", {
            x1: a[0] + ox, y1: a[1] + oy,
            x2: b[0] + ox, y2: b[1] + oy,
            stroke: heat > 0.01
                ? "rgb(211," + Math.round(160 - 113 * heat) + ","
                  + Math.round(160 - 113 * heat) + ")"
                : "#78909c",
            "stroke-width": (0.75 + 6 * l.flits / maxFlits)
                .toFixed(2),
            "stroke-linecap": "round" });
        line.appendChild(svgEl("title"));
        line.firstChild.textContent = l.src + " -> " + l.dst
            + ": " + l.flits + " flits, " + l.credit_stalls
            + " credit stalls, occupancy sum " + l.occupancy_sum;
        svg.appendChild(line);
    });
    for (let i = 0; i < n; ++i) {
        const p = pos(i);
        svg.appendChild(svgEl("circle", { cx: p[0], cy: p[1],
            r: 13, fill: "#eceff1", stroke: "#546e7a" }));
        const t = svgEl("text", { x: p[0], y: p[1] + 4,
            "text-anchor": "middle", "font-size": "11" });
        t.textContent = i;
        svg.appendChild(t);
    }
    return svg;
}

// --- roofline scatter (log-log) -----------------------------------
function roofline(layers) {
    const pts = layers.filter(l => l.roofline
        && l.roofline.mac_per_cycle > 0
        && l.roofline.intensity > 0);
    if (!pts.length) return null;
    const macCeil = pts[0].roofline.mac_ceiling;
    const bwCeil = pts[0].roofline.bytes_ceiling;
    const W = 560, H = 330, L = 55, B = 35, T = 15, R = 15;
    const xs = pts.map(p => p.roofline.intensity);
    const x0 = Math.min(0.05, ...xs) / 2;
    const x1 = Math.max(macCeil / bwCeil * 8, ...xs) * 2;
    const y1 = macCeil * 2;
    const y0 = Math.min(y1 / 1e4,
        ...pts.map(p => p.roofline.mac_per_cycle)) / 2;
    const X = v => L + (Math.log10(v) - Math.log10(x0))
        / (Math.log10(x1) - Math.log10(x0)) * (W - L - R);
    const Y = v => H - B - (Math.log10(v) - Math.log10(y0))
        / (Math.log10(y1) - Math.log10(y0)) * (H - B - T);
    const svg = svgEl("svg", { width: W, height: H });
    // Bandwidth roof: y = x * bwCeil, clipped at the MAC roof.
    const ridge = macCeil / bwCeil;
    svg.appendChild(svgEl("line", { x1: X(x0), y1: Y(x0 * bwCeil),
        x2: X(ridge), y2: Y(macCeil), stroke: "#e91e63",
        "stroke-width": 2 }));
    svg.appendChild(svgEl("line", { x1: X(ridge), y1: Y(macCeil),
        x2: X(x1), y2: Y(macCeil), stroke: "#4caf50",
        "stroke-width": 2 }));
    const cap = function (x, y, text, fill) {
        const t = svgEl("text", { x: x, y: y, "font-size": "11",
            fill: fill });
        t.textContent = text;
        svg.appendChild(t);
    };
    cap(X(ridge) + 6, Y(macCeil) - 6,
        "MAC roof " + fmt(macCeil) + "/cyc", "#2e7d32");
    cap(X(x0) + 6, Y(x0 * bwCeil) - 8,
        "DRAM roof " + fmt(bwCeil) + " B/cyc", "#c2185b");
    // Axes.
    svg.appendChild(svgEl("line", { x1: L, y1: H - B, x2: W - R,
        y2: H - B, stroke: "#555" }));
    svg.appendChild(svgEl("line", { x1: L, y1: T, x2: L, y2: H - B,
        stroke: "#555" }));
    cap(W / 2 - 70, H - 8, "MACs per DRAM byte (log)", "#333");
    const yl = svgEl("text", { x: 12, y: H / 2,
        "font-size": "11", fill: "#333",
        transform: "rotate(-90 12 " + H / 2 + ")" });
    yl.textContent = "MACs / cycle (log)";
    svg.appendChild(yl);
    pts.forEach(function (p) {
        const r = p.roofline;
        const c = svgEl("circle", { cx: X(r.intensity),
            cy: Y(r.mac_per_cycle), r: 5,
            fill: r.bound === "mac" ? "#4caf50"
                : r.bound === "dram" ? "#e91e63" : "#ff9800",
            stroke: "#333" });
        c.appendChild(svgEl("title"));
        c.firstChild.textContent = p.name + ": "
            + fmt(r.mac_per_cycle) + " MAC/cyc of "
            + fmt(r.mac_ceiling) + ", " + fmt(r.bytes_per_cycle)
            + " B/cyc of " + fmt(r.bytes_ceiling) + ", bound: "
            + r.bound;
        svg.appendChild(c);
        cap(X(r.intensity) + 7, Y(r.mac_per_cycle) + 4, p.name,
            "#333");
    });
    return svg;
}

// --- stacked fraction bars ----------------------------------------
function stackedBar(fractions, colors) {
    const bar = h("div", { class: "bar" });
    for (const k in fractions) {
        const f = fractions[k];
        if (!(f > 0)) continue;
        const seg = h("div", { title: k + ": "
            + (100 * f).toFixed(1) + "%" });
        seg.style.width = (100 * f).toFixed(2) + "%";
        seg.style.background = colors[k] || "#9e9e9e";
        bar.appendChild(seg);
    }
    return bar;
}
function legend(colors) {
    const box = h("div", { class: "legend" });
    for (const k in colors) {
        const item = h("span");
        const sw = h("i");
        sw.style.background = colors[k];
        item.appendChild(sw);
        item.appendChild(document.createTextNode(k));
        box.appendChild(item);
    }
    return box;
}

// --- tables -------------------------------------------------------
function kvTable(obj) {
    const t = h("table");
    for (const k in obj) {
        const v = obj[k];
        t.appendChild(h("tr", {},
            h("th", { text: k }),
            h("td", { text: typeof v === "object" && v !== null
                ? JSON.stringify(v) : fmt(v) })));
    }
    return t;
}

function render() {
    root.appendChild(h("h1", { text: DATA.title }));
    DATA.runs.forEach(function (run) {
        root.appendChild(h("h2", { text: run.name }));

        if (run.manifest) {
            root.appendChild(h("h3", { text: "Run manifest" }));
            root.appendChild(kvTable(run.manifest));
        }

        const sp = run.spatial && run.spatial.aggregate
            ? run.spatial.aggregate : run.spatial;
        const spLayers = run.spatial && run.spatial.layers
            ? run.spatial.layers : [];

        if (spLayers.length) {
            const rl = roofline(spLayers);
            if (rl) {
                root.appendChild(h("h3",
                    { text: "Roofline attribution (per layer)" }));
                root.appendChild(rl);
            }
        }

        if (sp && sp.links && sp.links.length) {
            root.appendChild(h("h3",
                { text: "NoC link traffic (width = flits, red = "
                        + "credit stalls)" }));
            root.appendChild(linkMap(sp));
        }
        if (sp) {
            root.appendChild(h("h3", { text: "Spatial heatmaps" }));
            const grids = h("div", { class: "grids" });
            const cols = sp.mesh_width > 0 ? sp.mesh_width
                : Math.ceil(Math.sqrt(sp.nodes || 1));
            const add = function (title, values) {
                if (values && values.length && values.some(v => v))
                    grids.appendChild(heatmap(title, values, cols));
            };
            add("PE MAC ops", sp.pe_mac_ops);
            add("lateral injections", sp.node_lateral);
            add("local injections", sp.node_local);
            add("vault DRAM bytes", sp.vault_bytes);
            add("vault queue-depth sum", sp.vault_queue_ticks);
            grids.appendChild(h("div", { class: "note",
                text: "cells are mesh nodes (row-major); vault "
                      + "counters are in channel order, hosted at "
                      + "nodes [" + (sp.vault_node || [])
                      + "]" }));
            root.appendChild(grids);
        }

        if (run.metrics && run.metrics.layers) {
            root.appendChild(h("h3",
                { text: "Per-layer stall breakdown" }));
            root.appendChild(legend(STALL_COLORS));
            run.metrics.layers.forEach(function (l) {
                if (!l.bottleneck) return;
                const row = h("div", { class: "row" });
                row.appendChild(h("div", { class: "lbl",
                    text: l.name + " [" + l.bottleneck.label
                          + "]" }));
                row.appendChild(stackedBar(l.bottleneck.fractions,
                    STALL_COLORS));
                root.appendChild(row);
            });
        }

        if (run.energy && run.energy.valid) {
            root.appendChild(h("h3", { text: "Energy breakdown ("
                + fmt(run.energy.total_j) + " J total, "
                + fmt(run.energy.avg_power_w) + " W avg)" }));
            root.appendChild(legend(ENERGY_COLORS));
            const comp = run.energy.components;
            let sum = 0;
            for (const k in comp) sum += comp[k];
            const norm = {};
            for (const k in comp) norm[k] = comp[k] / (sum || 1);
            const row = h("div", { class: "row" });
            row.appendChild(h("div", { class: "lbl",
                text: "dynamic" }));
            row.appendChild(stackedBar(norm, ENERGY_COLORS));
            root.appendChild(row);
            if (run.energy.static_j !== undefined) {
                root.appendChild(h("div", { class: "note",
                    text: "dynamic " + fmt(run.energy.dynamic_j)
                        + " J + static/leakage "
                        + fmt(run.energy.static_j) + " J ("
                        + fmt(run.energy.static_power_w)
                        + " W held for the run)" }));
            }
        }

        if (run.phases && run.phases.segments
            && run.phases.segments.length) {
            root.appendChild(h("h3",
                { text: "Per-phase energy rollup" }));
            const t = h("table", {},
                h("tr", {}, h("th", { text: "phase" }),
                    h("th", { text: "start" }),
                    h("th", { text: "end" }),
                    h("th", { text: "ticks" }),
                    h("th", { text: "joules" }),
                    h("th", { text: "avg W" })));
            run.phases.segments.forEach(function (s) {
                t.appendChild(h("tr", {},
                    h("td", { text: s.kind }),
                    h("td", { text: fmt(s.start) }),
                    h("td", { text: fmt(s.end) }),
                    h("td", { text: fmt(s.ticks) }),
                    h("td", { text: fmt(s.joules) }),
                    h("td", { text: fmt(s.avg_power_w) })));
            });
            root.appendChild(t);
        }
    });
}
render();
</script>
</body>
</html>
)NCHTML";

} // namespace

std::string
renderRunReport(const std::string &title,
                const std::vector<ReportRun> &runs)
{
    std::ostringstream os;
    os << kHead << htmlEscape(title) << kStyle;
    os << "{\"title\":" << jsonString(title) << ",\"runs\":[";
    for (size_t i = 0; i < runs.size(); ++i) {
        if (i)
            os << ",";
        appendRun(os, runs[i]);
    }
    os << "]}" << kScript;
    return os.str();
}

} // namespace neurocube
