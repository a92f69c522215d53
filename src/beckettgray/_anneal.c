/* A batch of beckettgray.anneal.hunt's attempts, compiled: for each seed,
   the annealing, the cut back to the handoff and the degree-pruned
   completion, until one attempt finds a code.

   anneal.py builds this file with the system cc on first use and calls
   bg_hunt through ctypes, under the one batch contract of anneal._kernel;
   anneal._hunt_py, its Python twin under the same contract, is the
   reference it follows.  The generator is CPython's MT19937, seeded and
   drawn as random.Random(seed) seeds and draws for an int seed, so the
   kernel makes every draw the twin makes and returns the same best
   partials; its completion keeps a running deficit where the twin scans
   its counts, and walks the same nodes.  All state but a table set once, on
   load, lives in the call: ctypes releases the GIL around it. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

typedef struct { uint32_t mt[MT_N]; int index; } mt_state;

/* init_genrand(19650218), where every init_by_array starts; set once, when
   the library is loaded */
static uint32_t mt_start[MT_N];

__attribute__((constructor)) static void mt_start_init(void) {
    mt_start[0] = 19650218U;
    for (uint32_t i = 1; i < MT_N; i++)
        mt_start[i] = 1812433253U * (mt_start[i - 1] ^ (mt_start[i - 1] >> 30)) + i;
}

/* random.Random(seed): init_by_array keyed by the 32-bit words of abs(seed),
   len of them, least significant first */
static void mt_seed(mt_state *r, const uint32_t *key, size_t len) {
    uint32_t *mt = r->mt;
    size_t i = 1, j = 0, k;
    memcpy(mt, mt_start, sizeof mt_start);
    for (k = MT_N > len ? MT_N : len; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        if (++i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
        if (++j >= len) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        if (++i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
    }
    mt[0] = 0x80000000U;
    r->index = MT_N;
}

/* the seed one above: its sign (negative) and magnitude (len words, no
   leading zero word but a lone one, room for one more) step as an int does */
static void next_seed(int *negative, uint32_t *key, size_t *len) {
    size_t i = 0;
    if (*negative) {  /* the magnitude shrinks; at 0 the sign is + */
        while (!key[i]--) i++;
        while (*len > 1 && !key[*len - 1]) --*len;
        *negative = *len > 1 || key[0];
    } else {
        while (i < *len && !++key[i]) i++;
        if (i == *len) key[(*len)++] = 1;
    }
}

static uint32_t mt_next(mt_state *r) {
    uint32_t *mt = r->mt, y;
    if (r->index >= MT_N) {
        for (int k = 0; k < MT_N; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1 < MT_N ? k + 1 : 0] & 0x7fffffffU);
            mt[k] = mt[k < MT_N - MT_M ? k + MT_M : k + MT_M - MT_N] ^ (y >> 1) ^ (-(y & 1) & 0x9908b0dfU);
        }
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* a draw below m >= 1: getrandbits(m.bit_length()), redrawn until below m */
static int mt_below(mt_state *r, int m) {
    int bits = 0;
    uint32_t x;
    while (m >> bits) bits++;
    do x = mt_next(r) >> (32 - bits); while (x >= (uint32_t)m);
    return (int)x;
}

/* random(): 53 bits from two draws */
static double mt_random(mt_state *r) {
    uint32_t a = mt_next(r) >> 5;
    uint32_t b = mt_next(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* SearchState without restricted growth; queue holds the symbol of every
   enqueue, so the front is queue[qlen - popcount(word)] */
typedef struct {
    int n, len, qlen;
    uint32_t word;
    uint8_t *visited, *seq, *queue;
} search_state;

static void push(search_state *s, int p) {
    uint32_t b = 1U << p;
    s->word ^= b;
    if (s->word & b) s->queue[s->qlen++] = (uint8_t)p;
    s->visited[s->word] = 1;
    s->seq[s->len++] = (uint8_t)p;
}

static void truncate_to(search_state *s, int depth) {
    while (s->len > depth) {
        int p = s->seq[--s->len];
        if (s->word >> p & 1) s->qlen--;
        if (s->word) s->visited[s->word] = 0;
        s->word ^= 1U << p;
    }
}

/* the node's moves before the visited test: the unset bits and the front's;
   at depth 2**n - 1 with one bit set, every word is visited, so word 0's
   flag is cleared for the step that closes the cycle, and that push sets
   it again */
static uint32_t moves(search_state *s) {
    uint32_t last = (1U << s->n) - 1, word = s->word;
    if ((uint32_t)s->len == last && !(word & (word - 1))) s->visited[0] = 0;
    return last ^ word ^ (word ? 1U << s->queue[s->qlen - __builtin_popcount(word)] : 0);
}

static void descend(search_state *s, mt_state *r, int stop_at) {
    uint32_t mask;
    int kids[32], k;
    while (s->len < stop_at) {
        mask = moves(s);
        k = 0;
        for (int p = 0; p < s->n; p++)
            if ((mask >> p & 1) && !s->visited[s->word ^ 1U << p]) kids[k++] = p;
        if (!k) break;
        push(s, kids[mt_below(r, k)]);
    }
}

/* search._degrees' counts for the unvisited words (the available neighbours:
   unvisited ones, the current word, and word 0 for a cycle) in avail; returns
   the deficit, the sum of 2 - count over those with fewer than two, which
   passes the slack exactly when the walk's rule finds a node dead */
static int degrees(const search_state *s, uint8_t *avail, int cyclic) {
    uint32_t words = 1U << s->n;
    int deficit = 0, a;
    memset(avail, 0, words);
    for (int p = 0; p < s->n; p++) {
        avail[s->word ^ 1U << p]++;
        if (cyclic && s->word) avail[1U << p]++;
    }
    for (uint32_t x = 0; x < words; x++)
        if (!s->visited[x]) {
            a = avail[x];
            for (int p = 0; p < s->n; p++) a += !s->visited[x ^ 1U << p];
            avail[x] = (uint8_t)a;
            if (a < 2) deficit += 2 - a;
        }
    return deficit;
}

/* walk's O(n) update when the state leaves word u (step -1) or comes back
   to it (+1): u's unvisited neighbours lose or regain it; returns the
   change in the deficit */
static int shift(const search_state *s, uint8_t *avail, uint32_t u, int step) {
    int change = 0, low;
    for (int p = 0; p < s->n; p++)
        if (!s->visited[u ^ 1U << p]) {
            low = step < 0 ? --avail[u ^ 1U << p] : avail[u ^ 1U << p]++;
            change -= step * (low < 2);
        }
    return change;
}

/* word w's share of the deficit while it is unvisited; word 0 has none */
static int lack(const uint8_t *avail, uint32_t w) {
    return w && avail[w] < 2 ? 2 - avail[w] : 0;
}

/* anneal._complete from the state as it stands: the nodes of
   SearchState.walk(length, restricted_growth=False, prune=mode), in order,
   counted into *nodes and stopped as _complete counts and stops them; the
   mode is cyclic when length is 2**n.  rest[d] holds the untried moves of
   the open node at depth d.  Returns 1 with the state at the code found, 0
   once the count passes budget (0: no budget), or -1 when the walk ends. */
static int complete(search_state *s, uint8_t *avail, uint32_t *rest, int length,
                    long long budget, long long *nodes) {
    int root = s->len, cyclic = length >> s->n, prune = s->n > 1, slack = !cyclic, p;
    int deficit = prune ? degrees(s, avail, cyclic) : 0;
    uint32_t u, *r;
    for (long long count = 1;; count++) {
        *nodes = count;
        if (budget && count > budget) return 0;
        if (s->len == length) return 1;
        /* a node below which no code can be completed is not expanded */
        rest[s->len] = deficit <= slack ? moves(s) : 0;
        for (;;) {  /* the next child, or a climb to the nearest node with one */
            r = &rest[s->len];
            while (*r && s->visited[s->word ^ (*r & -*r)]) *r &= *r - 1;
            if (*r) break;
            if (s->len == root) return -1;
            if (prune) {
                deficit += lack(avail, s->word);
                u = s->word ^ 1U << s->seq[s->len - 1];
                if (u || !cyclic) deficit += shift(s, avail, u, 1);
            }
            truncate_to(s, s->len - 1);
        }
        p = __builtin_ctz(*r);
        *r &= *r - 1;
        push(s, p);
        if (prune) {
            u = s->word ^ 1U << p;
            if (u || !cyclic) deficit += shift(s, avail, u, -1);
            deficit -= lack(avail, s->word);
        }
    }
}

/* Up to count hunt attempts, as anneal._hunt_py makes them, from the seeds
   first, first + 1, ...: first is negative or not, with the little-endian
   bytes of its magnitude, seed_words 32-bit words of them.  Each attempt
   anneals a fresh n-bit state from its seed towards a code of length
   symbols, stopping early at a partial of handoff symbols (of length for a
   handoff of 0), cuts the best partial back to handoff symbols unless it is
   a code, and completes it under budget nodes (0: no budget).  The batch
   stops after the first attempt that finds a code.  Returns the attempts
   made, or -1 if memory runs out; out (length bytes) gets the code found,
   or else the last attempt's best partial, zero-padded; done[0] gets the
   longest best partial, done[1] the nodes summed and done[2] the last
   outcome, 1 found, 0 out of budget or -1 no code below. */
int bg_hunt(int n, int negative, const uint8_t *first, int seed_words, int count, int length,
            int handoff, long long budget, double temperature, double cooling, int steps,
            double floor, int max_cut, uint8_t *out, long long *done) {
    size_t words = (size_t)1 << n, key_len = (size_t)seed_words;
    uint32_t *rest = calloc((size_t)length * sizeof *rest + (key_len + 1) * sizeof *rest
                            + 2 * words + 2 * (size_t)length + (size_t)max_cut, 1);
    uint32_t *key;
    uint8_t *avail, *suffix;
    search_state s = {n, 0, 0, 0, NULL, NULL, NULL};
    mt_state r;
    long long nodes;
    double t;
    int made, best_len, cur_len, keep, cut, m, stop_len = handoff ? handoff : length;
    if (!rest) return -1;
    key = rest + length;
    s.visited = (uint8_t *)(key + key_len + 1);
    avail = s.visited + words;
    s.seq = avail + words;
    s.queue = s.seq + length;
    suffix = s.queue + length;
    for (size_t i = 0; i < 4 * key_len; i++) key[i / 4] |= (uint32_t)first[i] << 8 * (i % 4);
    done[0] = done[1] = 0;
    for (made = 1;; made++) {
        truncate_to(&s, 0);
        s.visited[0] = 1;
        mt_seed(&r, key, key_len);
        descend(&s, &r, length);
        memcpy(out, s.seq, best_len = s.len);
        for (t = temperature; t > floor && best_len < stop_len; t *= cooling)
            for (int i = 0; i < steps; i++) {
                cur_len = s.len;
                m = cur_len > 1 ? cur_len : 1;
                m = m < max_cut ? m : max_cut;
                keep = cur_len - 1 - mt_below(&r, m);
                keep = keep > 0 ? keep : 0;
                cut = cur_len - keep;
                memcpy(suffix, s.seq + keep, cut);
                truncate_to(&s, keep);
                descend(&s, &r, length);
                if (s.len < cur_len && mt_random(&r) >= exp((s.len - cur_len) / t)) {
                    /* rejected: restore the suffix that was cut */
                    truncate_to(&s, keep);
                    for (int j = 0; j < cut; j++) push(&s, suffix[j]);
                }
                if (s.len > best_len) {
                    memcpy(out, s.seq, best_len = s.len);
                    if (best_len >= stop_len) break;
                }
            }
        /* the state at the best partial's first cut symbols: keep what it
           shares with the best partial and push the rest */
        cut = best_len == length || handoff > best_len ? best_len : handoff;
        for (keep = 0; keep < s.len && keep < cut && s.seq[keep] == out[keep]; keep++)
            ;
        truncate_to(&s, keep);
        while (s.len < cut) push(&s, out[s.len]);
        done[0] = best_len > done[0] ? best_len : done[0];
        done[2] = complete(&s, avail, rest, length, budget, &nodes);
        done[1] += nodes;
        if (done[2] > 0 || made >= count) break;
        next_seed(&negative, key, &key_len);
    }
    if (done[2] > 0) memcpy(out, s.seq, (size_t)length);
    else memset(out + best_len, 0, (size_t)(length - best_len));
    free(rest);
    return made;
}
