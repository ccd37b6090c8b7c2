// Package corpus synthesizes the patch populations PatchDB is built from: a
// set of git repositories whose commits are security patches (12 pattern
// classes, Table V) and non-security patches (features, perf/logic fixes,
// refactorings, cleanups) in configurable mixtures. It substitutes for the
// paper's 313 GitHub repositories and 6M wild commits while preserving the
// properties the pipeline depends on: the syntactic feature structure of
// each class, the NVD-vs-wild type-distribution discrepancy (Fig. 6), and
// the 6-10% base rate of silent security patches in the wild.
package corpus

import (
	"math/rand"
	"strconv"
	"strings"

	"patchdb/internal/gitrepo"
)

// Mix is a probability distribution over the 12 security pattern classes
// (index 0 = Pattern 1). It need not be normalized; weights are relative.
type Mix [NumPatterns]float64

// DefaultNVDMix approximates the NVD-based dataset's long-tail type
// distribution from Fig. 6: Type 11 (redesign) is the head class, three
// classes cover ~60%, and most tail classes sit under 5%.
var DefaultNVDMix = Mix{
	8,  // 1 bound checks
	7,  // 2 null checks
	16, // 3 other sanity checks
	4,  // 4 variable definitions
	6,  // 5 variable values
	2,  // 6 function declarations
	3,  // 7 function parameters
	14, // 8 function calls
	2,  // 9 jump statements
	4,  // 10 statement moves
	33, // 11 redesign
	1,  // 12 others
}

// DefaultWildMix approximates the wild population Fig. 6 reports after
// nearest-link discovery: Type 8 (function calls) becomes the head class
// and Type 11 falls to ~5%.
var DefaultWildMix = Mix{
	12, // 1
	10, // 2
	17, // 3
	5,  // 4
	9,  // 5
	2,  // 6
	2,  // 7
	30, // 8
	1,  // 9
	6,  // 10
	5,  // 11
	1,  // 12
}

// NonSecMix weights the non-security classes (index 0 = NonSecFeature).
type NonSecMix [NumNonSecClasses]float64

// DefaultNonSecMix is the composition of the cleaned non-security dataset
// (bulk hardening weight 0: that family is wild-only, see WildHardeningRate).
var DefaultNonSecMix = NonSecMix{25, 20, 25, 15, 15, 0}

// Config parameterizes a Generator.
type Config struct {
	// Seed drives all randomness; equal seeds give identical corpora.
	Seed int64
	// Repos is the number of repositories commits are spread over
	// (default 40; the paper's pipeline uses 313).
	Repos int
	// SecurityRate is the fraction of security patches among wild commits
	// (default 0.08, the paper's 6-10% band).
	SecurityRate float64
	// NVDMix is the pattern mixture of NVD-indexed security patches.
	NVDMix Mix
	// WildMix is the pattern mixture of silent security patches in the wild.
	WildMix Mix
	// NonSec is the non-security class mixture.
	NonSec NonSecMix
	// WildHardeningRate is the fraction of wild non-security commits drawn
	// from the bulk-hardening family that the cleaned training negatives do
	// not contain (default 0.10). It models the NVD-vs-wild distribution
	// discrepancy the paper identifies as the reason confidence-ranking
	// augmentation baselines underperform.
	WildHardeningRate float64
}

func (c Config) withDefaults() Config {
	if c.Repos <= 0 {
		c.Repos = 40
	}
	if c.SecurityRate <= 0 {
		c.SecurityRate = 0.08
	}
	if c.NVDMix == (Mix{}) {
		c.NVDMix = DefaultNVDMix
	}
	if c.WildMix == (Mix{}) {
		c.WildMix = DefaultWildMix
	}
	if c.NonSec == (NonSecMix{}) {
		c.NonSec = DefaultNonSecMix
	}
	if c.WildHardeningRate == 0 {
		c.WildHardeningRate = 0.16
	}
	return c
}

// LabeledCommit couples a generated commit with its ground truth, which the
// verification oracle replays in place of the paper's human experts.
type LabeledCommit struct {
	Commit *gitrepo.Commit
	// Security is the ground-truth label.
	Security bool
	// Pattern is the security pattern class (zero if non-security).
	Pattern Pattern
	// NonSec is the non-security class (zero if security).
	NonSec NonSecClass
	// CVE is the assigned CVE id for NVD-indexed patches ("" otherwise).
	CVE string
}

// Generator produces labeled commits into an in-memory repository store.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	store  *gitrepo.Store
	repos  []*gitrepo.Repo
	fileID int
	cveID  int
	year   int
}

// NewGenerator creates a generator with its repository fleet.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		store: gitrepo.NewStore(),
		year:  1999,
	}
	for i := 0; i < cfg.Repos; i++ {
		name := pick(g.rng, orgNames) + "/" + pick(g.rng, verbs) + "-" + pick(g.rng, nouns)
		r := gitrepo.NewRepo(name + "-" + strconv.Itoa(i))
		if err := g.store.Add(r); err == nil {
			g.repos = append(g.repos, r)
		}
	}
	return g
}

var orgNames = []string{
	"libfoo", "netio", "imagetools", "coreutils-ng", "kernel-widgets",
	"mediaproc", "cryptokit", "dbengine", "protostack", "fsdriver",
}

var authorNames = []string{
	"Alice Hu", "Bo Chen", "Carol Diaz", "Deepak Rao", "Elena Petrova",
	"Farid Khan", "Grace Lim", "Hiro Tanaka", "Ivan Novak", "Jun Park",
}

// Store exposes the underlying repository store (the pipeline's "GitHub").
func (g *Generator) Store() *gitrepo.Store { return g.store }

// sample draws an index from a weight vector.
func sampleWeights(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	r := rng.Float64() * total
	for i, v := range w {
		r -= v
		if r < 0 {
			return i
		}
	}
	return len(w) - 1
}

func (g *Generator) nextDate() string {
	if g.rng.Intn(20) == 0 && g.year < 2019 {
		g.year++
	}
	return strconv.Itoa(g.year) + "-" + twoDigits(1+g.rng.Intn(12)) + "-" + twoDigits(1+g.rng.Intn(28))
}

// twoDigits renders n in [0, 99] zero-padded to two digits.
func twoDigits(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}

// SecurityCommit generates one security patch commit drawn from the given
// pattern mixture.
func (g *Generator) SecurityCommit(mix Mix) *LabeledCommit {
	p := Pattern(sampleWeights(g.rng, mix[:]) + 1)
	return g.securityCommitOfPattern(p)
}

// SecurityCommitOfPattern generates one security patch of an exact class
// (used by tests and ablations).
func (g *Generator) SecurityCommitOfPattern(p Pattern) *LabeledCommit {
	return g.securityCommitOfPattern(p)
}

func (g *Generator) securityCommitOfPattern(p Pattern) *LabeledCommit {
	repo := g.repos[g.rng.Intn(len(g.repos))]
	g.fileID++
	before := genFile(g.rng, g.fileID)
	beforeText := before.text()
	repo.SeedFile(before.path, beforeText)
	after := applySecurityPattern(before, p, g.rng)
	g.jitter(after)
	afterText := after.text()
	// An editor can occasionally no-op when its anchor is missing; a commit
	// must change something, so fall back to a guaranteed-effective edit.
	if afterText == beforeText {
		afterText = applySecurityPattern(before, PatternNullCheck, g.rng).text()
	}
	msg := g.securityMessage(before.fn.name)
	c := repo.Commit(pick(g.rng, authorNames), g.nextDate(), msg,
		map[string]string{before.path: afterText})
	return &LabeledCommit{Commit: c, Security: true, Pattern: p}
}

// jitter models real commits bundling incidental edits with the main
// change: comments, renames, or small tweaks land in the same diff. It
// widens the per-class feature clusters so patches of different labels
// genuinely overlap in feature space.
func (g *Generator) jitter(f *srcFile) {
	if g.rng.Float64() < 0.35 {
		applyCleanup(f, &f.fn, g.rng)
	}
	if g.rng.Float64() < 0.2 {
		applyRefactor(f, &f.fn, g.rng)
	}
	if g.rng.Float64() < 0.15 {
		applyLogic(f, &f.fn, g.rng)
	}
}

// NonSecurityCommit generates one non-security commit from the configured
// class mixture.
func (g *Generator) NonSecurityCommit() *LabeledCommit {
	c := NonSecClass(sampleWeights(g.rng, g.cfg.NonSec[:]) + 1)
	return g.nonSecurityCommitOfClass(c)
}

// NonSecurityCommitOfClass generates one non-security commit of an exact
// class.
func (g *Generator) NonSecurityCommitOfClass(cls NonSecClass) *LabeledCommit {
	return g.nonSecurityCommitOfClass(cls)
}

func (g *Generator) nonSecurityCommitOfClass(cls NonSecClass) *LabeledCommit {
	repo := g.repos[g.rng.Intn(len(g.repos))]
	g.fileID++
	before := genFile(g.rng, g.fileID)
	beforeText := before.text()
	repo.SeedFile(before.path, beforeText)
	after := applyNonSecurity(before, cls, g.rng)
	g.jitter(after)
	afterText := after.text()
	if afterText == beforeText {
		afterText = applyNonSecurity(before, NonSecCleanup, g.rng).text()
	}
	msg := g.nonSecurityMessage(cls, before.fn.name)
	c := repo.Commit(pick(g.rng, authorNames), g.nextDate(), msg,
		map[string]string{before.path: afterText})
	return &LabeledCommit{Commit: c, NonSec: cls}
}

// GenerateNVD produces n NVD-indexed security patches (NVD mixture) with
// CVE ids assigned.
func (g *Generator) GenerateNVD(n int) []*LabeledCommit {
	out := make([]*LabeledCommit, 0, n)
	for i := 0; i < n; i++ {
		lc := g.SecurityCommit(g.cfg.NVDMix)
		g.cveID++
		// The sequence number starts at 10001, so it always has the five
		// digits CVE ids are padded to.
		lc.CVE = "CVE-" + strconv.Itoa(2002+g.rng.Intn(18)) + "-" + strconv.Itoa(10000+g.cveID)
		out = append(out, lc)
	}
	return out
}

// GenerateWild produces n wild commits: SecurityRate of them are silent
// security patches (wild mixture), the rest non-security.
func (g *Generator) GenerateWild(n int) []*LabeledCommit {
	out := make([]*LabeledCommit, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case g.rng.Float64() < g.cfg.SecurityRate:
			out = append(out, g.SecurityCommit(g.cfg.WildMix))
		case g.rng.Float64() < g.cfg.WildHardeningRate:
			out = append(out, g.nonSecurityCommitOfClass(NonSecHardening))
		default:
			out = append(out, g.NonSecurityCommit())
		}
	}
	return out
}

// GenerateNonSecurity produces n non-security commits (used to build the
// cleaned negative training set).
func (g *Generator) GenerateNonSecurity(n int) []*LabeledCommit {
	out := make([]*LabeledCommit, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.NonSecurityCommit())
	}
	return out
}

// Commit message templates. Each holds one %s, the name of the patched
// function; fill substitutes it.
var (
	explicitSecurityMessages = []string{
		"fix out-of-bounds access in %s",
		"%s: prevent buffer overflow",
		"fix NULL pointer dereference in %s",
		"CVE fix: validate input in %s",
		"%s: fix use-after-free",
		"fix integer overflow in %s",
	}
	neutralSecurityMessages = []string{
		"fix crash in %s",
		"%s: handle truncated input",
		"fix %s corner case",
		"%s: correct state handling",
		"don't trust caller-provided sizes in %s",
		"fix wrong behaviour of %s on malformed data",
		"%s: robustness fix",
	}
	nonSecurityMessages = map[NonSecClass][]string{
		NonSecFeature:   {"add stats interface for %s", "%s: add new option", "support extended mode in %s"},
		NonSecPerf:      {"speed up %s", "%s: avoid needless work", "optimize hot path of %s"},
		NonSecLogic:     {"fix accounting in %s", "%s: fix wrong result", "correct %s threshold"},
		NonSecRefactor:  {"refactor %s", "%s: rename locals for clarity", "simplify %s"},
		NonSecHardening: {"harden %s per review guidelines", "%s: defensive checks", "apply input validation policy to %s"},
	}
	cleanupMessages = []string{"cleanup %s", "%s: style fixes", "docs for %s"}
)

// fill substitutes fn for the %s of a message template.
func fill(template, fn string) string {
	before, after, _ := strings.Cut(template, "%s")
	return before + fn + after
}

// securityMessage renders a commit message. Mirroring the paper's
// observation that 61% of security patches do not mention security in their
// description, most messages are neutral.
func (g *Generator) securityMessage(fn string) string {
	if g.rng.Float64() < 0.39 {
		return fill(pick(g.rng, explicitSecurityMessages), fn)
	}
	return fill(pick(g.rng, neutralSecurityMessages), fn)
}

func (g *Generator) nonSecurityMessage(cls NonSecClass, fn string) string {
	pool, ok := nonSecurityMessages[cls]
	if !ok {
		pool = cleanupMessages
	}
	return fill(pick(g.rng, pool), fn)
}
