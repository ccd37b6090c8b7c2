// Package oversample implements PatchDB's source-level oversampling
// (Sec. III-C): locate the `if` statements a patch touches via the AST,
// apply one of eight semantics-preserving control-flow variant templates
// (Fig. 5) to the pre- or post-patch version of the file, and re-derive the
// unified diff. Modifying the AFTER version merges the original patch with
// the extra edit; modifying the BEFORE version merges the inverse edit, so
// both directions of the paper's merge construction fall out of a single
// re-diff.
package oversample

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"patchdb/internal/cast"
	"patchdb/internal/diff"
	"patchdb/internal/par"
	"patchdb/internal/telemetry"
)

// Variant identifies one of the eight if-statement templates of Fig. 5.
type Variant int

const (
	// VariantZeroOr rewrites `if (C)` as `const int _SYS_ZERO = 0;
	// if (_SYS_ZERO || (C))`.
	VariantZeroOr Variant = iota + 1
	// VariantOneAnd rewrites with `const int _SYS_ONE = 1; if (_SYS_ONE && (C))`.
	VariantOneAnd
	// VariantBoolEq hoists the condition: `int _SYS_STMT = (C); if (1 == _SYS_STMT)`.
	VariantBoolEq
	// VariantBoolNeg hoists the negation: `int _SYS_STMT = !(C); if (!_SYS_STMT)`.
	VariantBoolNeg
	// VariantFlagSet precomputes a flag: `int _SYS_VAL = 0; if (C) { _SYS_VAL = 1; } if (_SYS_VAL)`.
	VariantFlagSet
	// VariantFlagClear precomputes the inverted flag: `int _SYS_VAL = 1;
	// if (C) { _SYS_VAL = 0; } if (!_SYS_VAL)`.
	VariantFlagClear
	// VariantFlagAnd guards with flag AND condition: `... if (_SYS_VAL && (C))`.
	VariantFlagAnd
	// VariantFlagOr guards with inverted flag OR condition: `... if (!_SYS_VAL || (C))`.
	VariantFlagOr
)

// NumVariants is the number of templates.
const NumVariants = 8

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantZeroOr:
		return "SYS_ZERO||cond"
	case VariantOneAnd:
		return "SYS_ONE&&cond"
	case VariantBoolEq:
		return "bool-eq"
	case VariantBoolNeg:
		return "bool-neg"
	case VariantFlagSet:
		return "flag-set"
	case VariantFlagClear:
		return "flag-clear"
	case VariantFlagAnd:
		return "flag-and"
	case VariantFlagOr:
		return "flag-or"
	default:
		return "unknown"
	}
}

// Side selects which version of the file the extra edit lands in.
type Side int

const (
	// ModifyAfter edits the post-patch version (extra modifications are
	// appended to the patch).
	ModifyAfter Side = iota + 1
	// ModifyBefore edits the pre-patch version (the inverse modification is
	// prepended to the patch).
	ModifyBefore
)

// String names the side.
func (s Side) String() string {
	if s == ModifyBefore {
		return "before"
	}
	return "after"
}

// ErrNoIfStatement is returned when the requested if statement cannot be
// transformed (e.g. no condition span).
var ErrNoIfStatement = errors.New("oversample: no transformable if statement")

// ApplyVariant rewrites one if statement inside src according to the
// template, returning the transformed source. The transformation never
// changes the truth value of the condition, so program semantics are
// preserved.
func ApplyVariant(src string, ifStmt *cast.IfStmt, v Variant) (string, error) {
	if ifStmt == nil || ifStmt.CondClose <= ifStmt.CondOpen {
		return "", ErrNoIfStatement
	}
	cond := strings.TrimSpace(src[ifStmt.CondOpen+1 : ifStmt.CondClose])
	if cond == "" {
		return "", ErrNoIfStatement
	}
	// Find the start of the line holding the `if` and its indentation.
	lineStart := strings.LastIndexByte(src[:ifStmt.KwOffset], '\n') + 1
	indent := src[lineStart:ifStmt.KwOffset]
	if strings.TrimSpace(indent) != "" {
		// `if` shares the line with other code (e.g. `} else if`): indent
		// from column zero of that text.
		indent = leadingWhitespace(src[lineStart:])
	}

	var decl []string
	var newCond string
	wrapped := "(" + cond + ")"
	switch v {
	case VariantZeroOr:
		decl = []string{"const int _SYS_ZERO = 0;"}
		newCond = "_SYS_ZERO || " + wrapped
	case VariantOneAnd:
		decl = []string{"const int _SYS_ONE = 1;"}
		newCond = "_SYS_ONE && " + wrapped
	case VariantBoolEq:
		decl = []string{"int _SYS_STMT = " + wrapped + ";"}
		newCond = "1 == _SYS_STMT"
	case VariantBoolNeg:
		decl = []string{"int _SYS_STMT = !" + wrapped + ";"}
		newCond = "!_SYS_STMT"
	case VariantFlagSet:
		decl = []string{
			"int _SYS_VAL = 0;",
			"if " + wrapped + " { _SYS_VAL = 1; }",
		}
		newCond = "_SYS_VAL"
	case VariantFlagClear:
		decl = []string{
			"int _SYS_VAL = 1;",
			"if " + wrapped + " { _SYS_VAL = 0; }",
		}
		newCond = "!_SYS_VAL"
	case VariantFlagAnd:
		decl = []string{
			"int _SYS_VAL = 0;",
			"if " + wrapped + " { _SYS_VAL = 1; }",
		}
		newCond = "_SYS_VAL && " + wrapped
	case VariantFlagOr:
		decl = []string{
			"int _SYS_VAL = 1;",
			"if " + wrapped + " { _SYS_VAL = 0; }",
		}
		newCond = "!_SYS_VAL || " + wrapped
	default:
		return "", fmt.Errorf("oversample: unknown variant %d", int(v))
	}

	var b strings.Builder
	b.Grow(len(src) + 64*len(decl))
	b.WriteString(src[:lineStart])
	for _, d := range decl {
		b.WriteString(indent)
		b.WriteString(d)
		b.WriteString("\n")
	}
	b.WriteString(src[lineStart : ifStmt.CondOpen+1])
	b.WriteString(newCond)
	b.WriteString(src[ifStmt.CondClose:])
	return b.String(), nil
}

func leadingWhitespace(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' && s[i] != '\t' {
			return s[:i]
		}
	}
	return s
}

// Synthetic is one generated artificial patch.
type Synthetic struct {
	Patch   *diff.Patch
	Variant Variant
	Side    Side
	// File is the path whose if statement was transformed.
	File string
	// Line is the 1-based line of the transformed if statement.
	Line int
}

// Oversampler synthesizes patch variants from full before/after file
// snapshots.
type Oversampler struct {
	// ContextLines in regenerated diffs (default 3, matching git).
	ContextLines int
	// MaxPerPatch caps synthetic patches per natural patch (0 = all).
	MaxPerPatch int
	// Sides selects which versions to modify (default: both).
	Sides []Side
	// Variants selects which templates to use (default: all eight).
	Variants []Variant
	// Rand, when set, shuffles the (if-statement, variant, side) candidate
	// combinations before MaxPerPatch truncation so capped synthesis samples
	// diverse variants instead of always the first templates.
	Rand *rand.Rand
}

func (o *Oversampler) defaults() (int, []Side, []Variant) {
	ctx := o.ContextLines
	if ctx <= 0 {
		ctx = 3
	}
	sides := o.Sides
	if len(sides) == 0 {
		sides = []Side{ModifyAfter, ModifyBefore}
	}
	variants := o.Variants
	if len(variants) == 0 {
		variants = make([]Variant, NumVariants)
		for i := range variants {
			variants[i] = Variant(i + 1)
		}
	}
	return ctx, sides, variants
}

// Synthesize generates artificial patches for one natural patch, given the
// full before/after snapshots of the files it touches. Patches that do not
// modify any if statement yield no variants (the paper reports ~70% of
// security patches involve conditional statements). It is a SynthesizeBatch
// of one patch on the calling goroutine.
func (o *Oversampler) Synthesize(commitHash string, before, after map[string]string) ([]*Synthetic, error) {
	var out []*Synthetic
	err := o.SynthesizeBatch(context.Background(), 1, 1,
		func(int) Job { return Job{Hash: commitHash, Before: before, After: after} },
		func(_ int, syns []*Synthetic) { out = syns })
	return out, err
}

// Job is one natural patch to synthesize from: its commit hash and the full
// before/after snapshots of the files it touches.
type Job struct {
	Hash          string
	Before, After map[string]string
}

// batchWindow is the number of patches SynthesizeBatch enumerates before it
// renders them. It bounds the enumerations held at once; the output does
// not depend on it.
const batchWindow = 256

// SynthesizeBatch synthesizes the variants of the n patches job(0), ...,
// job(n-1). Its output is that of n Synthesize calls in index order over the
// same Rand, at any worker count: the only draw is one shuffle of each
// patch's candidate combinations, and the shuffles are made serially in
// index order. The work around them runs on par.For at workers (<= 0 means
// GOMAXPROCS), one window of patches at a time: enumerate (the base diff,
// parsing each side and locating the if statements it touches), shuffle,
// then render (apply the variant, re-diff, up to MaxPerPatch per patch).
//
// job is called concurrently and must only read. done(i, syns) is called
// once per patch, on the goroutine that rendered it, so it may write only
// to caller-owned slot i (a caller merges the slots in index order after
// SynthesizeBatch returns). Each window's phases are traced as
// oversample.enumerate and oversample.render spans under ctx's span. Once
// ctx is done no new patch starts, and SynthesizeBatch returns ctx.Err()
// wrapped.
func (o *Oversampler) SynthesizeBatch(ctx context.Context, n, workers int, job func(i int) Job, done func(i int, syns []*Synthetic)) error {
	ctxLines, sides, variants := o.defaults()
	plans := make([]plan, min(n, batchWindow))
	for lo := 0; lo < n; lo += batchWindow {
		w := plans[:min(batchWindow, n-lo)]
		_, span := telemetry.Start(ctx, "oversample.enumerate")
		err := par.For(ctx, len(w), workers, func(_, k int) {
			w[k] = enumerate(job(lo+k), ctxLines, sides, variants)
		})
		span.End()
		if err != nil {
			return fmt.Errorf("oversample: %w", err)
		}
		if o.Rand != nil {
			for _, p := range w {
				o.Rand.Shuffle(len(p.combos), func(i, j int) { p.combos[i], p.combos[j] = p.combos[j], p.combos[i] })
			}
		}
		_, span = telemetry.Start(ctx, "oversample.render")
		err = par.For(ctx, len(w), workers, func(_, k int) {
			done(lo+k, w[k].render(o.MaxPerPatch, ctxLines))
			w[k] = plan{}
		})
		span.End()
		if err != nil {
			return fmt.Errorf("oversample: %w", err)
		}
	}
	return nil
}

// plan is one patch's enumerated synthesis work.
type plan struct {
	Job
	// combos are the (file, side, if statement, variant) combinations in
	// the order render tries them.
	combos []combo
}

type combo struct {
	fd     *diff.FileDiff
	side   Side
	src    string
	ifStmt *cast.IfStmt
	v      Variant
}

// enumerate lists every (file, side, if statement, variant) combination of
// one patch, in file, side, statement and variant order.
func enumerate(j Job, ctxLines int, sides []Side, variants []Variant) plan {
	p := plan{Job: j}
	base := diff.ComputePatch(j.Hash, "", j.Before, j.After, ctxLines)
	for _, fd := range base.Files {
		if !fd.IsCFamily() {
			continue
		}
		for _, side := range sides {
			var src string
			var ok bool
			if side == ModifyAfter {
				src, ok = j.After[fd.NewPath]
			} else {
				src, ok = j.Before[fd.OldPath]
			}
			if !ok || src == "" {
				continue
			}
			file, err := cast.Parse(src)
			if err != nil {
				continue // unparseable: skip, as the paper skips LLVM failures
			}
			for _, ifStmt := range targetIfStmts(file, fd, side) {
				for _, v := range variants {
					p.combos = append(p.combos, combo{fd: fd, side: side, src: src, ifStmt: ifStmt, v: v})
				}
			}
		}
	}
	return p
}

// render applies the plan's combinations in order and re-diffs each
// variant, keeping those that change something, up to maxPer (0 = all).
func (p *plan) render(maxPer, ctxLines int) []*Synthetic {
	var out []*Synthetic
	for _, c := range p.combos {
		mutated, err := ApplyVariant(c.src, c.ifStmt, c.v)
		if err != nil {
			continue
		}
		var d *diff.Patch
		variantHash := p.Hash + "-syn-" + c.side.String() + "-" + strconv.Itoa(c.ifStmt.StartLine) + "-" + strconv.Itoa(int(c.v))
		if c.side == ModifyAfter {
			d = diff.ComputePatch(variantHash, "", p.Before, overlay(p.After, c.fd.NewPath, mutated), ctxLines)
		} else {
			d = diff.ComputePatch(variantHash, "", overlay(p.Before, c.fd.OldPath, mutated), p.After, ctxLines)
		}
		if len(d.Files) == 0 {
			continue
		}
		out = append(out, &Synthetic{
			Patch:   d,
			Variant: c.v,
			Side:    c.side,
			File:    c.fd.NewPath,
			Line:    c.ifStmt.StartLine,
		})
		if maxPer > 0 && len(out) >= maxPer {
			break
		}
	}
	return out
}

// targetIfStmts returns the if statements overlapping the patch's changed
// lines on the requested side.
func targetIfStmts(file *cast.File, fd *diff.FileDiff, side Side) []*cast.IfStmt {
	seen := make(map[*cast.IfStmt]bool)
	var out []*cast.IfStmt
	for _, h := range fd.Hunks {
		var first, last int
		if side == ModifyAfter {
			first, last = h.NewStart, h.NewStart+h.NewLines-1
		} else {
			first, last = h.OldStart, h.OldStart+h.OldLines-1
		}
		for _, s := range file.IfStmtsInLines(first, last) {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

func overlay(files map[string]string, path, content string) map[string]string {
	out := make(map[string]string, len(files))
	for k, v := range files {
		out[k] = v
	}
	out[path] = content
	return out
}
