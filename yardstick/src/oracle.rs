//! Independent output oracle: a BLIF reader and bit-parallel evaluator
//! that shares no code with the mapper's network type.
//!
//! A mapped netlist is read from its BLIF text, every signal is evaluated
//! over all `2^n` input minterms at once (one `u64` word per 64
//! minterms), and each output is compared with its specification table.
//! LUT count and depth are taken from the same parse, so the QoR the
//! benchmark records does not rest on the program's own accounting.

use hyde_logic::TruthTable;
use std::collections::HashMap;

/// One `.names` block: a cover over `fanins` driving `out`.
#[derive(Debug, Clone)]
struct Names {
    fanins: Vec<String>,
    out: String,
    /// Cube rows: one byte per fanin, `b'0'`, `b'1'` or `b'-'`.
    rows: Vec<Vec<u8>>,
    /// Whether the rows list the on-set (`1`) or the off-set (`0`).
    on_set: bool,
}

/// A parsed combinational BLIF model.
#[derive(Debug, Clone)]
pub struct Blif {
    inputs: Vec<String>,
    outputs: Vec<String>,
    names: Vec<Names>,
}

/// What the oracle measured on one netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qor {
    /// LUTs: `.names` blocks other than output buffers.
    pub luts: usize,
    /// LUT levels on the longest input-to-output path.
    pub depth: usize,
    /// Largest fanin of any LUT.
    pub max_fanin: usize,
}

/// Parses BLIF text (`.model/.inputs/.outputs/.names/.end`, with `\`
/// line continuations).
pub fn parse(text: &str) -> Result<Blif, String> {
    let mut lines: Vec<String> = Vec::new();
    let mut pending = String::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if let Some(head) = line.strip_suffix('\\') {
            pending.push_str(head);
            pending.push(' ');
            continue;
        }
        pending.push_str(line);
        let full = std::mem::take(&mut pending);
        if !full.trim().is_empty() {
            lines.push(full.trim().to_owned());
        }
    }
    let mut blif = Blif {
        inputs: Vec::new(),
        outputs: Vec::new(),
        names: Vec::new(),
    };
    for line in &lines {
        let mut words = line.split_whitespace();
        match words.next() {
            Some(".model") | Some(".end") => {}
            Some(".inputs") => blif.inputs.extend(words.map(str::to_owned)),
            Some(".outputs") => blif.outputs.extend(words.map(str::to_owned)),
            Some(".names") => {
                let mut sigs: Vec<String> = words.map(str::to_owned).collect();
                let out = sigs.pop().ok_or("'.names' without signals")?;
                blif.names.push(Names {
                    fanins: sigs,
                    out,
                    rows: Vec::new(),
                    on_set: true,
                });
            }
            Some(w) if w.starts_with('.') => return Err(format!("unsupported directive '{w}'")),
            Some(_) => {
                let node = blif.names.last_mut().ok_or("cube row outside '.names'")?;
                let parts: Vec<&str> = line.split_whitespace().collect();
                let (cube, value) = match (node.fanins.len(), parts.as_slice()) {
                    (0, [v]) => ("", *v),
                    (_, [c, v]) => (*c, *v),
                    _ => return Err(format!("malformed cube row '{line}'")),
                };
                if cube.len() != node.fanins.len()
                    || !cube.bytes().all(|b| matches!(b, b'0' | b'1' | b'-'))
                {
                    return Err(format!("cube '{cube}' does not fit {}", node.out));
                }
                let on = match value {
                    "1" => true,
                    "0" => false,
                    _ => return Err(format!("bad output value in '{line}'")),
                };
                if !node.rows.is_empty() && node.on_set != on {
                    return Err(format!("{} mixes on-set and off-set rows", node.out));
                }
                node.on_set = on;
                node.rows.push(cube.as_bytes().to_vec());
            }
            None => {}
        }
    }
    Ok(blif)
}

impl Blif {
    /// Index of the block driving each signal.
    fn drivers(&self) -> Result<HashMap<&str, usize>, String> {
        let mut drivers = HashMap::new();
        for (i, n) in self.names.iter().enumerate() {
            if self.inputs.contains(&n.out) || drivers.insert(n.out.as_str(), i).is_some() {
                return Err(format!("signal {} has two drivers", n.out));
            }
        }
        Ok(drivers)
    }

    /// Blocks in topological order (fanins first).
    fn topo(&self) -> Result<Vec<usize>, String> {
        let drivers = self.drivers()?;
        // 0 = unvisited, 1 = on the stack, 2 = done.
        let mut state = vec![0u8; self.names.len()];
        let mut order = Vec::with_capacity(self.names.len());
        for root in 0..self.names.len() {
            let mut stack = vec![(root, 0usize)];
            while let Some((i, next)) = stack.pop() {
                if next == 0 {
                    match state[i] {
                        2 => continue,
                        1 => return Err(format!("combinational cycle at {}", self.names[i].out)),
                        _ => state[i] = 1,
                    }
                }
                let fanins = &self.names[i].fanins;
                if let Some(f) = fanins.get(next) {
                    stack.push((i, next + 1));
                    if let Some(&d) = drivers.get(f.as_str()) {
                        if state[d] == 1 {
                            return Err(format!("combinational cycle at {f}"));
                        }
                        if state[d] == 0 {
                            stack.push((d, 0));
                        }
                    } else if !self.inputs.contains(f) {
                        return Err(format!("signal {f} has no driver"));
                    }
                } else {
                    state[i] = 2;
                    order.push(i);
                }
            }
        }
        Ok(order)
    }

    /// Whether block `i` is a buffer the writer adds to rename an output.
    fn is_output_buffer(&self, i: usize) -> bool {
        let n = &self.names[i];
        n.fanins.len() == 1
            && n.on_set
            && n.rows == [b"1".to_vec()]
            && self.outputs.contains(&n.out)
            && n.fanins[0] != n.out
    }

    /// LUT count, depth and widest LUT.
    pub fn qor(&self) -> Result<Qor, String> {
        let drivers = self.drivers()?;
        let mut level: HashMap<&str, usize> = HashMap::new();
        let mut qor = Qor {
            luts: 0,
            depth: 0,
            max_fanin: 0,
        };
        for i in self.topo()? {
            let n = &self.names[i];
            let below = n
                .fanins
                .iter()
                .map(|f| level.get(f.as_str()).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let buffer = self.is_output_buffer(i);
            if !buffer {
                qor.luts += 1;
                qor.max_fanin = qor.max_fanin.max(n.fanins.len());
            }
            let own = usize::from(!buffer && !n.fanins.is_empty());
            level.insert(n.out.as_str(), below + own);
        }
        for o in &self.outputs {
            if !drivers.contains_key(o.as_str()) && !self.inputs.contains(o) {
                return Err(format!("output {o} has no driver"));
            }
            qor.depth = qor.depth.max(level.get(o.as_str()).copied().unwrap_or(0));
        }
        Ok(qor)
    }

    /// Every output evaluated over all `2^n` minterms, as words in
    /// [`TruthTable`] minterm order (minterm `m` is bit `m % 64` of word
    /// `m / 64`; input `i` is bit `i` of `m`).
    pub fn simulate(&self) -> Result<Vec<Vec<u64>>, String> {
        let n = self.inputs.len();
        if n > 24 {
            return Err(format!("{n} inputs is too many to simulate exhaustively"));
        }
        let words = (1usize << n).div_ceil(64);
        let mask = if n >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << n)) - 1
        };
        let mut value: HashMap<&str, Vec<u64>> = HashMap::new();
        for (i, name) in self.inputs.iter().enumerate() {
            let w: Vec<u64> = (0..words)
                .map(|wi| {
                    let mut bits = 0u64;
                    for b in 0..64 {
                        let m = wi * 64 + b;
                        if m >> i & 1 == 1 {
                            bits |= 1 << b;
                        }
                    }
                    bits & mask
                })
                .collect();
            value.insert(name.as_str(), w);
        }
        for i in self.topo()? {
            let node = &self.names[i];
            let ins: Vec<&Vec<u64>> = node.fanins.iter().map(|f| &value[f.as_str()]).collect();
            let mut acc = vec![0u64; words];
            for row in &node.rows {
                for (w, slot) in acc.iter_mut().enumerate() {
                    let mut cube = mask;
                    for (lit, input) in row.iter().zip(&ins) {
                        match lit {
                            b'1' => cube &= input[w],
                            b'0' => cube &= !input[w],
                            _ => {}
                        }
                    }
                    *slot |= cube;
                }
            }
            if !node.on_set {
                for slot in &mut acc {
                    *slot = !*slot & mask;
                }
            }
            value.insert(node.out.as_str(), acc);
        }
        self.outputs
            .iter()
            .map(|o| {
                value
                    .get(o.as_str())
                    .cloned()
                    .ok_or_else(|| format!("output {o} has no driver"))
            })
            .collect()
    }
}

/// Specification tables as simulation words (same layout as
/// [`Blif::simulate`]).
fn spec_words(spec: &TruthTable) -> Vec<u64> {
    let n = spec.vars();
    let minterms = 1usize << n;
    let mut w = vec![0u64; minterms.div_ceil(64)];
    for m in 0..minterms {
        if spec.eval(m as u32) {
            w[m / 64] |= 1 << (m % 64);
        }
    }
    w
}

/// The oracle's verdict on one netlist.
#[derive(Debug, Clone)]
pub struct Check {
    /// QoR read from the netlist.
    pub qor: Qor,
    /// Per output: the first minterm where netlist and spec disagree.
    pub mismatch: Vec<Option<u32>>,
    /// Per output: netlist XOR spec, one bit per minterm.
    diff: Vec<Vec<u64>>,
}

impl Check {
    /// Whether every output matches its specification.
    pub fn equivalent(&self) -> bool {
        self.mismatch.iter().all(Option::is_none)
    }

    /// Whether output `o` differs from its spec at minterm `m`.
    pub fn differs(&self, o: usize, m: u32) -> bool {
        let m = m as usize;
        self.diff
            .get(o)
            .and_then(|d| d.get(m / 64))
            .is_some_and(|w| w >> (m % 64) & 1 == 1)
    }
}

/// Checks `blif` against `specs` over every minterm and every LUT against
/// the `k`-input limit. Input `i` of the model is spec variable `i`;
/// output `o` is spec `o`.
pub fn check(blif: &str, specs: &[TruthTable], k: usize) -> Result<Check, String> {
    let model = parse(blif)?;
    let vars = specs.first().map_or(0, TruthTable::vars);
    if model.inputs.len() != vars || model.outputs.len() != specs.len() {
        return Err(format!(
            "netlist has {} inputs / {} outputs, spec has {vars} / {}",
            model.inputs.len(),
            model.outputs.len(),
            specs.len()
        ));
    }
    let qor = model.qor()?;
    if qor.max_fanin > k {
        return Err(format!(
            "a LUT has {} inputs, more than k = {k}",
            qor.max_fanin
        ));
    }
    let got = model.simulate()?;
    let diff: Vec<Vec<u64>> = got
        .iter()
        .zip(specs)
        .map(|(g, spec)| g.iter().zip(spec_words(spec)).map(|(a, b)| a ^ b).collect())
        .collect();
    let mismatch = diff
        .iter()
        .map(|d: &Vec<u64>| {
            d.iter()
                .enumerate()
                .find(|(_, w)| **w != 0)
                .map(|(i, w)| (i * 64) as u32 + w.trailing_zeros())
        })
        .collect();
    Ok(Check {
        qor,
        mismatch,
        diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAJ_XOR: &str = "\
.model t
.inputs a b c
.outputs maj par
.names a b c n1
11- 1
1-1 1
-11 1
.names a b x
10 1
01 1
.names x c par
10 1
01 1
.names n1 maj
1 1
.end
";

    fn specs() -> Vec<TruthTable> {
        vec![
            TruthTable::from_fn(3, |m| m.count_ones() >= 2),
            TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1),
        ]
    }

    #[test]
    fn accepts_a_correct_netlist_and_reads_its_qor() {
        let c = check(MAJ_XOR, &specs(), 5).unwrap();
        assert!(c.equivalent());
        // The `n1 -> maj` block is an output buffer, not a LUT.
        assert_eq!(
            c.qor,
            Qor {
                luts: 3,
                depth: 2,
                max_fanin: 3
            }
        );
    }

    #[test]
    fn rejects_a_netlist_with_one_corrupted_cube() {
        // `-11 1` -> `-01 1`: majority now fires on a=0, b=0, c=1
        // (minterm 4), the first minterm where it is wrong.
        let bad = MAJ_XOR.replacen("-11 1", "-01 1", 1);
        let c = check(&bad, &specs(), 5).unwrap();
        assert!(!c.equivalent());
        assert_eq!(c.mismatch, vec![Some(4), None]);
        assert!(c.differs(0, 4) && !c.differs(0, 0) && !c.differs(1, 4));
    }

    #[test]
    fn rejects_wide_luts_cycles_and_dangling_signals() {
        assert!(check(MAJ_XOR, &specs(), 2)
            .unwrap_err()
            .contains("more than k"));
        let cyc = ".model c\n.inputs a\n.outputs y\n.names a z y\n11 1\n.names y z\n1 1\n.end\n";
        let spec = vec![TruthTable::from_fn(1, |m| m == 1)];
        assert!(check(cyc, &spec, 5).unwrap_err().contains("cycle"));
        let dangling = ".model d\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end\n";
        assert!(check(dangling, &spec, 5).unwrap_err().contains("no driver"));
    }

    #[test]
    fn evaluates_constants_and_off_set_covers() {
        let text = ".model k\n.inputs a\n.outputs one zero na\n.names one\n1\n\
                    .names zero\n.names a na\n1 0\n.end\n";
        let specs = vec![
            TruthTable::one(1),
            TruthTable::zero(1),
            TruthTable::from_fn(1, |m| m == 0),
        ];
        let c = check(text, &specs, 5).unwrap();
        assert!(c.equivalent(), "{:?}", c.mismatch);
    }

    #[test]
    fn simulates_beyond_one_word() {
        // 8-input parity spans four words.
        let mut text = String::from(".model p\n.inputs");
        for i in 0..8 {
            text.push_str(&format!(" x{i}"));
        }
        text.push_str("\n.outputs y\n.names x0 x1 x2 x3 a\n");
        let rows = |t: &mut String| {
            for m in 0u32..16 {
                if m.count_ones() % 2 == 1 {
                    let cube: String = (0..4)
                        .map(|i| if m >> i & 1 == 1 { '1' } else { '0' })
                        .collect();
                    t.push_str(&format!("{cube} 1\n"));
                }
            }
        };
        rows(&mut text);
        text.push_str(".names x4 x5 x6 x7 b\n");
        rows(&mut text);
        text.push_str(".names a b y\n10 1\n01 1\n.end\n");
        let spec = vec![TruthTable::from_fn(8, |m| m.count_ones() % 2 == 1)];
        let c = check(&text, &spec, 5).unwrap();
        assert!(c.equivalent());
        assert_eq!(c.qor.depth, 2);
    }
}
