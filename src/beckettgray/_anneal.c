/* The annealing loop of beckettgray.anneal._anneal, compiled.

   anneal.py builds this file with the system cc on first use and calls
   bg_anneal through ctypes; anneal._anneal_py is the reference it follows
   step for step.  The generator is CPython's MT19937, seeded and drawn as
   random.Random(seed) seeds and draws for an int seed, so the kernel makes
   every draw the reference makes and returns the same best partial.  All
   state lives in the call: ctypes releases the GIL around it. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

typedef struct { uint32_t mt[MT_N]; int index; } mt_state;

/* random.Random(seed): init_by_array keyed by the 32-bit words of abs(seed) */
static void mt_seed(mt_state *r, const uint32_t *key, size_t len) {
    uint32_t *mt = r->mt;
    size_t i, j = 0, k;
    mt[0] = 19650218U;
    for (i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
    i = 1;
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

static void descend(search_state *s, mt_state *r, int stop_at) {
    uint32_t last = (1U << s->n) - 1, word, front;
    int kids[32], k;
    while (s->len < stop_at) {
        word = s->word;
        front = word ? 1U << s->queue[s->qlen - __builtin_popcount(word)] : 0;
        if ((uint32_t)s->len == last && !(word & (word - 1)))
            s->visited[0] = 0;  /* every word is visited: close the cycle */
        k = 0;
        for (int p = 0; p < s->n; p++)
            if (((last ^ word ^ front) >> p & 1) && !s->visited[word ^ 1U << p]) kids[k++] = p;
        if (!k) break;
        push(s, kids[mt_below(r, k)]);
    }
}

/* Anneal from a fresh n-bit state grown to at most target symbols; write
   the best partial to best (target bytes) and return its length, or -1 if
   memory runs out. */
int bg_anneal(int n, const uint32_t *key, size_t key_len, int target, int stop_len,
              double temperature, double cooling, int steps, double floor, int max_cut,
              uint8_t *best) {
    size_t words = (size_t)1 << n;
    uint8_t *mem = calloc(words + 2 * (size_t)target + (size_t)max_cut, 1), *suffix;
    search_state s = {n, 0, 0, 0, NULL, NULL, NULL};
    mt_state r;
    int best_len, cur_len, keep, cut, m;
    if (!mem) return -1;
    s.visited = mem;
    s.seq = mem + words;
    s.queue = s.seq + target;
    suffix = s.queue + target;
    s.visited[0] = 1;
    mt_seed(&r, key, key_len);
    descend(&s, &r, target);
    memcpy(best, s.seq, best_len = s.len);
    while (temperature > floor && best_len < stop_len) {
        for (int i = 0; i < steps; i++) {
            cur_len = s.len;
            m = cur_len > 1 ? cur_len : 1;
            m = m < max_cut ? m : max_cut;
            keep = cur_len - 1 - mt_below(&r, m);
            keep = keep > 0 ? keep : 0;
            cut = cur_len - keep;
            memcpy(suffix, s.seq + keep, cut);
            truncate_to(&s, keep);
            descend(&s, &r, target);
            if (s.len < cur_len && mt_random(&r) >= exp((s.len - cur_len) / temperature)) {
                /* rejected: restore the suffix that was cut */
                truncate_to(&s, keep);
                for (int j = 0; j < cut; j++) push(&s, suffix[j]);
            }
            if (s.len > best_len) {
                memcpy(best, s.seq, best_len = s.len);
                if (best_len >= stop_len) break;
            }
        }
        temperature *= cooling;
    }
    free(mem);
    return best_len;
}
